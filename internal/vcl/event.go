package vcl

// This file is the VCL's contribution to the machine's event-driven
// scheduler (DESIGN.md §11). NextEvent computes the earliest future
// cycle at which the unit could change architectural or accounting
// state; SkipIdle replays the per-cycle bookkeeping of a skipped
// quiescent span so every exported counter is byte-identical to a
// tick-every-cycle run. NextEvent asks readyCycle, the rule issue asks;
// SkipIdle charges the span through census, the datapath accounting
// Tick runs for its one cycle; the machine's repartition waits on
// DrainCycle in both schedulers. Skipping cannot drift from ticking.

import "vlt/internal/pipe"

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
		if ev = p.windowEvent(v.arena, ev, now); ev == now+1 {
			return ev
		}
		if head := p.viq.Front(); head != 0 && len(p.win) < p.winCap {
			if !hasVecDest(v.arena.At(head)) || p.renames < p.renameCap {
				return now + 1 // dispatch proceeds next cycle
			}
			// Rename-starved: unblocked only by a window retirement,
			// which the completion candidates above already cover.
		}
	}
	return ev
}

// windowEvent folds into event horizon ev the cycle p's window next
// changes: an issued entry retires once done, an unissued one issues
// once ready, and either already due is pending next cycle (retirement,
// or issue limited by bandwidth). A window whose entries have all
// issued folds doneMin, at most their earliest completion, instead of
// walking them.
func (p *partition) windowEvent(a *pipe.Arena, ev, now uint64) uint64 {
	if p.unissued == 0 {
		return pipe.EventAt(ev, now, p.doneMin)
	}
	for _, id := range p.win {
		u := a.At(id)
		due := u.DoneCycle
		if !u.Issued {
			due = p.readyCycle(a, u, ev)
		}
		if ev = pipe.EventAt(ev, now, due); ev == now+1 {
			return ev
		}
	}
	return ev
}

// SkipIdle replays the skipped quiescent cycles [from, to): the issue
// round-robin advance and the Figure-4 datapath census. The span is
// quiescent by construction (NextEvent returned a cycle >= to), so no
// instruction dispatches, issues, or retires inside it.
func (v *VCL) SkipIdle(from, to uint64) {
	// issue advances the round-robin once per cycle.
	v.rr = int((uint64(v.rr) + (to - from)) % uint64(len(v.parts)))
	v.census(from, to)
}

// PeekEnqueue reports whether Enqueue would accept uop id (ok) and,
// when it would not, whether the refusal would count as a VIQ
// rejection: Enqueue refuses silently when the uop's thread owns no
// partition, and counts a reject only when the partition's VIQ is full.
func (v *VCL) PeekEnqueue(id pipe.UopID) (ok, counted bool) {
	p := v.partitionOf(v.arena.At(id).Thread)
	if p == nil {
		return false, false
	}
	if p.viq.Len() >= p.viqCap {
		return false, true
	}
	return true, false
}

// CreditRejects records n VIQ rejections: a scalar unit's dispatch
// charges one for each cycle, ticked or skipped, on which PeekEnqueue
// refused its vector head with counted set.
func (v *VCL) CreditRejects(n uint64) { v.VIQRejects += n }

// DrainCycle returns the first cycle at which the vector unit has no
// work: the latest FU or memory-port free time once nothing is in
// flight, or pipe.NeverDone while the VIQ or window still hold work
// (draining is then gated on dispatch/issue/retire events). A VLTCFG
// repartitions the lanes once DrainCycle() <= now.
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
