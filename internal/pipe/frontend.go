package pipe

import (
	"fmt"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/vm"
)

// CodeBase maps instruction indices into a byte-address space disjoint
// from data addresses for instruction-cache indexing.
const CodeBase uint64 = 1 << 40

// CodeAddr returns the byte address of instruction index pc.
func CodeAddr(pc int) uint64 { return CodeBase + uint64(pc)*isa.WordSize }

// Frontend is the fetch side of one hardware thread: the gates that
// decide when it may fetch, the fetch step itself and the last-writer
// tracking that tells a fetched instruction what it depends on. A
// scalar unit's SMT contexts and the lane cores embed one each; the
// queues, counters and the choice of when to capture producers stay
// with the owner. The zero Frontend is ready to use: no code line is 0,
// so the first fetch always looks up the instruction cache.
type Frontend struct {
	haltFetched   bool
	pendingBranch *Uop   // mispredicted branch gating fetch
	blockedUop    *Uop   // BAR or VLTCFG gating fetch
	stallUntil    uint64 // I-cache miss or redirect penalty
	curLine       uint64 // I-cache line of the last fetch

	lastWriter [isa.NumRegs]*Uop
	regScratch []isa.Reg // AppendSrcs/AppendDests buffer
}

// Halted reports whether the thread has fetched its HALT.
func (f *Frontend) Halted() bool { return f.haltFetched }

// Gate resolves the fetch gates at cycle now, in order: an I-cache or
// redirect stall, then an unresolved mispredicted branch (once it
// resolves, fetch redirects penalty cycles later), then a BAR or VLTCFG
// awaiting release. open reports whether the thread may fetch; branch
// reports that a mispredicted branch held it this cycle. A halted
// thread is never open.
func (f *Frontend) Gate(now uint64, penalty int) (open, branch bool) {
	if f.haltFetched || f.stallUntil > now {
		return false, false
	}
	if b := f.pendingBranch; b != nil {
		if !b.DoneBy(now) {
			return false, true
		}
		f.stallUntil = b.DoneCycle + uint64(penalty)
		b.Release()
		f.pendingBranch = nil
		if f.stallUntil > now {
			return false, true
		}
	}
	if b := f.blockedUop; b != nil {
		if !b.DoneBy(now) {
			return false, false
		}
		b.Release()
		f.blockedUop = nil
	}
	return true, false
}

// Fetch fetches software thread tid's next instruction at cycle now. A
// miss in ic on a new line stalls fetch until the line arrives plus
// missLat cycles and returns a nil uop with a nil error. Otherwise m
// executes the instruction and Fetch returns its uop, drawn from a;
// more is false when it ends the fetch group: a taken branch, or a
// mispredicted branch, BAR, VLTCFG or HALT, which also close a gate.
func (f *Frontend) Fetch(now uint64, m *vm.VM, tid int, ic *mem.L1, missLat uint64,
	pred *Bimodal, a *Arena) (u *Uop, more bool, err error) {
	addr := CodeAddr(m.Thread(tid).PC)
	if line := addr / mem.LineBytes; line != f.curLine {
		if done := ic.AccessLine(now, addr); done > now+1 {
			f.stallUntil = done + missLat
			return nil, false, nil
		}
		f.curLine = line
	}
	dyn, err := m.StepReusing(tid, a.RecycleDyn())
	if err != nil {
		return nil, false, err
	}
	u = a.NewUop(dyn, tid, now)
	switch {
	case dyn.Branch:
		switch dyn.Inst.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu:
			if !pred.Predict(dyn.PC, dyn.Taken) {
				u.Mispredicted = true
				u.Retain()
				f.pendingBranch = u
				return u, false, nil
			}
		}
		return u, !dyn.Taken, nil
	case dyn.IsBarrier || dyn.VltCfg != 0:
		u.Retain()
		f.blockedUop = u
		return u, false, nil
	case dyn.IsHalt:
		f.haltFetched = true
		return u, false, nil
	}
	return u, true, nil
}

// Producers appends to dst the in-flight writers of u's source
// registers, retaining each. Writers both retired and done are skipped:
// their result is in the register file. (Retirement alone is not
// enough: a vector uop with a scalar destination retires early on its
// CommitCycle while its result is still in flight.)
func (f *Frontend) Producers(dst []*Uop, u *Uop, now uint64) []*Uop {
	f.regScratch = u.Dyn.Inst.AppendSrcs(f.regScratch[:0])
	for _, r := range f.regScratch {
		if w := f.lastWriter[r]; w != nil && !(w.Retired && w.DoneBy(now)) {
			w.Retain()
			dst = append(dst, w)
		}
	}
	return dst
}

// Record makes u the last writer of its scalar destinations (vector
// destinations are renamed inside the vector control logic).
func (f *Frontend) Record(u *Uop) {
	f.regScratch = u.Dyn.Inst.AppendDests(f.regScratch[:0])
	for _, r := range f.regScratch {
		if r.IsVec() {
			continue
		}
		if old := f.lastWriter[r]; old != nil {
			old.Release()
		}
		u.Retain()
		f.lastWriter[r] = u
	}
}

// Unpin drops retiring uop u from last-writer tracking once its result
// is in the register file at now; such entries would only pin a dead
// uop. An early-committed vector uop whose scalar result is still in
// flight stays tracked.
func (f *Frontend) Unpin(u *Uop, now uint64) {
	if !u.DoneBy(now) {
		return
	}
	f.regScratch = u.Dyn.Inst.AppendDests(f.regScratch[:0])
	for _, r := range f.regScratch {
		if f.lastWriter[r] == u {
			f.lastWriter[r] = nil
			u.Release()
		}
	}
}

// Event folds the cycle at which Gate could next open into event
// horizon ev, mirroring Gate's order. open reports that no gate holds
// the thread: it fetches (or misses) next cycle if its queues have room.
func (f *Frontend) Event(ev, now uint64) (next uint64, open bool) {
	switch {
	case f.haltFetched:
		return ev, false
	case f.stallUntil > now:
		return min(ev, f.stallUntil), false
	case f.pendingBranch != nil:
		return EventAt(ev, now, f.pendingBranch.DoneCycle), false
	case f.blockedUop != nil:
		return EventAt(ev, now, f.blockedUop.DoneCycle), false
	}
	return ev, true
}

// BranchGated reports whether an unresolved mispredicted branch holds
// fetch throughout a quiescent span starting at from: Gate charges a
// branch stall on every cycle of it.
func (f *Frontend) BranchGated(from uint64) bool {
	return !f.haltFetched && f.stallUntil < from && f.pendingBranch != nil
}

// EventAt folds cycle done, at which something waiting on it
// re-evaluates, into event horizon ev after the cycle at now: a done
// already past clamps to now+1, and NeverDone contributes nothing.
func EventAt(ev, now, done uint64) uint64 {
	if done == NeverDone {
		return ev
	}
	return min(ev, max(done, now+1))
}

// State renders the gates at cycle now for a diagnostic dump, each as a
// space-prefixed word; the empty string means fetch is open.
func (f *Frontend) State(now uint64) string {
	s := ""
	if f.haltFetched {
		s += " halt-fetched"
	}
	if f.pendingBranch != nil {
		s += fmt.Sprintf(" branch-stalled@%d", f.pendingBranch.Dyn.PC)
	}
	if f.blockedUop != nil {
		s += fmt.Sprintf(" blocked-on-%s", f.blockedUop.Dyn.Inst.Op)
	}
	if f.stallUntil > now {
		s += fmt.Sprintf(" stalled-until-%d", f.stallUntil)
	}
	return s
}

// Clone returns a deep copy of the front end with the last writers and
// gating uops mapped through cl, so the owner must register its arena
// on cl first. The register scratch is fresh, at the same capacity.
func (f *Frontend) Clone(cl *Cloner) Frontend {
	n := *f
	n.regScratch = make([]isa.Reg, 0, cap(f.regScratch))
	for r, w := range f.lastWriter {
		n.lastWriter[r] = cl.Uop(w)
	}
	n.pendingBranch = cl.Uop(f.pendingBranch)
	n.blockedUop = cl.Uop(f.blockedUop)
	return n
}
