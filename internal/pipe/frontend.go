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
// with the owner, and so does the machine's Arena, which every method
// that follows a handle takes. A Frontend holds only values and
// handles, so copying it copies it. The zero Frontend is ready to use:
// no code line is 0, so the first fetch always looks up the
// instruction cache.
type Frontend struct {
	haltFetched   bool
	pendingBranch UopID  // mispredicted branch gating fetch
	blockedUop    UopID  // BAR or VLTCFG gating fetch
	stallUntil    uint64 // I-cache miss or redirect penalty
	curLine       uint64 // I-cache line of the last fetch

	lastWriter [isa.NumRegs]UopID
}

// Halted reports whether the thread has fetched its HALT.
func (f *Frontend) Halted() bool { return f.haltFetched }

// Gate resolves the fetch gates at cycle now, in order: an I-cache or
// redirect stall, then an unresolved mispredicted branch (once it
// resolves, fetch redirects penalty cycles later), then a BAR or VLTCFG
// awaiting release. open reports whether the thread may fetch; branch
// reports that a mispredicted branch held it this cycle. A halted
// thread is never open.
func (f *Frontend) Gate(a *Arena, now uint64, penalty int) (open, branch bool) {
	if f.haltFetched || f.stallUntil > now {
		return false, false
	}
	if b := f.pendingBranch; b != 0 {
		bu := a.At(b)
		if !bu.DoneBy(now) {
			return false, true
		}
		f.stallUntil = bu.DoneCycle + uint64(penalty)
		a.Release(b)
		f.pendingBranch = 0
		if f.stallUntil > now {
			return false, true
		}
	}
	if b := f.blockedUop; b != 0 {
		if !a.At(b).DoneBy(now) {
			return false, false
		}
		a.Release(b)
		a.gated--
		f.blockedUop = 0
	}
	return true, false
}

// Fetch fetches software thread tid's next instruction at cycle now. A
// miss in ic on a new line stalls fetch until the line arrives plus
// missLat cycles and returns no uop and a nil error. Otherwise m
// executes the instruction into a fresh uop of a and Fetch returns it;
// more is false when it ends the fetch group: a taken branch, or a
// mispredicted branch, BAR, VLTCFG or HALT, which also close a gate. A
// fault ends the run, so the uop it was fetched into is not recycled.
func (f *Frontend) Fetch(a *Arena, now uint64, m *vm.VM, tid int, ic *mem.L1, missLat uint64,
	pred *Bimodal) (id UopID, more bool, err error) {
	addr := CodeAddr(m.Thread(tid).PC)
	if line := addr / mem.LineBytes; line != f.curLine {
		if done := ic.AccessLine(now, addr); done > now+1 {
			f.stallUntil = done + missLat
			return 0, false, nil
		}
		f.curLine = line
	}
	id, u := a.New(tid, now)
	if err := m.StepReusing(tid, &u.Dyn); err != nil {
		return 0, false, err
	}
	dyn := &u.Dyn
	switch {
	case dyn.Branch:
		switch dyn.Inst.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu:
			if !pred.Predict(dyn.PC, dyn.Taken) {
				u.Mispredicted = true
				a.Retain(id)
				f.pendingBranch = id
				return id, false, nil
			}
		}
		return id, !dyn.Taken, nil
	case dyn.IsBarrier || dyn.VltCfg != 0:
		a.Retain(id)
		a.gated++
		f.blockedUop = id
		return id, false, nil
	case dyn.IsHalt:
		f.haltFetched = true
		return id, false, nil
	}
	return id, true, nil
}

// Producers records the in-flight writers of uop id's source registers,
// retaining each: a vector uop's go to its ScalarProducers, which the
// vector control logic reads, and any other uop's to its Producers
// through Arena.Depend, which keeps its ReadyCycle. Writers both retired
// and done are skipped: their result is in the register file.
// (Retirement alone is not enough: a vector uop with a scalar
// destination retires early on its CommitCycle while its result is
// still in flight.)
func (f *Frontend) Producers(a *Arena, id UopID, now uint64) {
	u := a.At(id)
	vector := u.Dyn.Inst.Op.Info().Vector
	var buf [MaxSrcs]isa.Reg
	for _, r := range u.Dyn.Inst.AppendSrcs(buf[:0]) {
		w := f.lastWriter[r]
		if w == 0 {
			continue
		}
		if wu := a.At(w); wu.Retired && wu.DoneBy(now) {
			continue
		}
		if vector {
			a.Retain(w)
			u.ScalarProducers.Add(w)
		} else {
			a.Depend(id, w)
		}
	}
}

// Record makes uop id the last writer of its scalar destinations
// (vector destinations are renamed inside the vector control logic).
func (f *Frontend) Record(a *Arena, id UopID) {
	var buf [MaxSrcs]isa.Reg
	for _, r := range a.At(id).Dyn.Inst.AppendDests(buf[:0]) {
		if r.IsVec() {
			continue
		}
		if old := f.lastWriter[r]; old != 0 {
			a.Release(old)
		}
		a.Retain(id)
		f.lastWriter[r] = id
	}
}

// Unpin drops retiring uop id from last-writer tracking once its result
// is in the register file at now; such entries would only pin a dead
// uop. An early-committed vector uop whose scalar result is still in
// flight stays tracked.
func (f *Frontend) Unpin(a *Arena, id UopID, now uint64) {
	u := a.At(id)
	if !u.DoneBy(now) {
		return
	}
	var buf [MaxSrcs]isa.Reg
	for _, r := range u.Dyn.Inst.AppendDests(buf[:0]) {
		if f.lastWriter[r] == id {
			f.lastWriter[r] = 0
			a.Release(id)
		}
	}
}

// Event folds the cycle at which Gate could next open into event
// horizon ev, mirroring Gate's order. open reports that no gate holds
// the thread: it fetches (or misses) next cycle if its queues have room.
func (f *Frontend) Event(a *Arena, ev, now uint64) (next uint64, open bool) {
	switch {
	case f.haltFetched:
		return ev, false
	case f.stallUntil > now:
		return min(ev, f.stallUntil), false
	case f.pendingBranch != 0:
		return EventAt(ev, now, a.At(f.pendingBranch).DoneCycle), false
	case f.blockedUop != 0:
		return EventAt(ev, now, a.At(f.blockedUop).DoneCycle), false
	}
	return ev, true
}

// BranchGated reports whether an unresolved mispredicted branch holds
// fetch throughout a quiescent span starting at from: Gate charges a
// branch stall on every cycle of it.
func (f *Frontend) BranchGated(from uint64) bool {
	return !f.haltFetched && f.stallUntil < from && f.pendingBranch != 0
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
func (f *Frontend) State(a *Arena, now uint64) string {
	s := ""
	if f.haltFetched {
		s += " halt-fetched"
	}
	if f.pendingBranch != 0 {
		s += fmt.Sprintf(" branch-stalled@%d", a.At(f.pendingBranch).Dyn.PC)
	}
	if f.blockedUop != 0 {
		s += fmt.Sprintf(" blocked-on-%s", a.At(f.blockedUop).Dyn.Inst.Op)
	}
	if f.stallUntil > now {
		s += fmt.Sprintf(" stalled-until-%d", f.stallUntil)
	}
	return s
}
