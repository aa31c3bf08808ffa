package vcl

// This file is the VCL's contribution to the machine's event-driven
// scheduler (DESIGN.md §11). NextEvent computes the earliest future
// cycle at which the unit could change architectural or accounting
// state; SkipIdle replays the per-cycle bookkeeping of a skipped
// quiescent span in closed form so every exported counter is
// byte-identical to a tick-every-cycle run.

import (
	"vlt/internal/isa"
	"vlt/internal/pipe"
)

// NextEvent reports the earliest cycle after now at which Tick could do
// anything beyond fixed idle bookkeeping: retire a completed window
// entry, dispatch from a VIQ, or issue a newly ready instruction. It is
// evaluated after the cycle at now has fully run, and never returns a
// cycle later than the unit's first actual state change (returning an
// earlier cycle merely costs a no-op tick). pipe.NeverDone means no
// event is currently scheduled — the unit is idle until some other
// component feeds it.
func (v *VCL) NextEvent(now uint64) uint64 {
	ev := uint64(pipe.NeverDone)
	for _, p := range v.parts {
		for _, u := range p.win {
			if u.Issued {
				if u.DoneCycle <= now {
					return now + 1 // retirement already pending
				}
				if u.DoneCycle < ev {
					ev = u.DoneCycle
				}
				continue
			}
			r, known := p.readyCycle(u)
			if !known {
				continue // gated on a producer another component completes
			}
			if r <= now {
				return now + 1 // ready but issue-bandwidth limited
			}
			if r < ev {
				ev = r
			}
		}
		if head := p.viq.Front(); head != nil && len(p.win) < p.winCap {
			if !hasVecDest(head) || p.renames < p.renameCap {
				return now + 1 // dispatch proceeds next cycle
			}
			// Rename-starved: unblocked only by a window retirement,
			// which the completion candidates above already cover.
		}
	}
	return ev
}

// readyCycle computes the first cycle at which u would pass readyAt: the
// latest of its scalar producers' completions, its vector producers'
// chain (or completion) cycles, and its functional unit's or a memory
// port's next-free cycle. known is false while any producer's completion
// is still unknown — readiness is then gated on another event entirely.
func (p *partition) readyCycle(u *pipe.Uop) (cycle uint64, known bool) {
	var r uint64
	for _, sp := range u.ScalarProducers {
		if sp.DoneCycle == pipe.NeverDone {
			return 0, false
		}
		if sp.DoneCycle > r {
			r = sp.DoneCycle
		}
	}
	for _, vp := range u.Producers {
		ready := vp.ChainCycle
		if p.noChain {
			ready = vp.DoneCycle
		}
		if ready == pipe.NeverDone {
			return 0, false
		}
		if ready > r {
			r = ready
		}
	}
	info := u.Dyn.Inst.Op.Info()
	switch info.Class {
	case isa.ClassVecALU:
		if f := p.vfuFree[info.VFU]; f > r {
			r = f
		}
	case isa.ClassVecLoad, isa.ClassVecStore:
		port := p.memFree[0]
		for _, f := range p.memFree[1:] {
			if f < port {
				port = f
			}
		}
		if port > r {
			r = port
		}
	}
	return r, true
}

// SkipIdle replays the skipped quiescent cycles [from, to): the issue
// round-robin advance and the Figure-4 datapath census. The span is
// quiescent by construction (NextEvent returned a cycle >= to), so no
// instruction dispatches, issues, or retires inside it: the pending/idle
// classification of every FU is constant across the span, and an FU
// mid-execution drains on the element schedule fixed at issue — both
// integrate exactly.
func (v *VCL) SkipIdle(from, to uint64) {
	if !v.cfg.ReplicatedIssue {
		v.rr += int(to - from) // issue() advances the round-robin per cycle
	}
	for _, p := range v.parts {
		for f := 0; f < NumVFUs; f++ {
			busy := from
			for busy < to && busy < p.vfuFree[f] {
				// Same per-cycle element count account() would charge.
				cur := p.vfuCur[f]
				k := int(busy - cur.issue)
				rem := cur.vl - k*p.lanes
				elems := p.lanes
				if rem < elems {
					elems = rem
				}
				if elems < 0 {
					elems = 0
				}
				v.Util.Busy += uint64(elems)
				v.Util.PartIdle += uint64(p.lanes - elems)
				busy++
			}
			if busy >= to {
				continue
			}
			idle := to - busy
			if p.pendingFor(f) {
				v.Util.Stalled += idle * uint64(p.lanes)
			} else {
				v.Util.AllIdle += idle * uint64(p.lanes)
			}
		}
	}
}

// PeekEnqueue reports whether Enqueue would accept u (ok) and, when it
// would not, whether the refusal would count as a VIQ rejection: Enqueue
// refuses silently when u's thread owns no partition, and counts a
// reject only when the partition's VIQ is full.
func (v *VCL) PeekEnqueue(u *pipe.Uop) (ok, counted bool) {
	p := v.partitionOf(u.Thread)
	if p == nil {
		return false, false
	}
	if p.viq.Len() >= p.viqCap {
		return false, true
	}
	return true, false
}

// CreditRejects records n VIQ rejections without enqueue attempts: a
// scalar unit skipping a quiescent span would have retried (and been
// refused) its blocked vector head once per skipped cycle.
func (v *VCL) CreditRejects(n uint64) { v.VIQRejects += n }

// DrainCycle returns the earliest cycle at which Drained could first
// report true: the latest FU or memory-port free time once nothing is in
// flight, or pipe.NeverDone while the VIQ or window still hold work
// (draining is then gated on dispatch/issue/retire events).
func (v *VCL) DrainCycle() uint64 {
	if v.InFlight() != 0 {
		return pipe.NeverDone
	}
	var d uint64
	for _, p := range v.parts {
		for _, f := range p.vfuFree {
			if f > d {
				d = f
			}
		}
		for _, f := range p.memFree {
			if f > d {
				d = f
			}
		}
	}
	return d
}
