package lane

// This file is the lane core's contribution to the machine's
// event-driven scheduler (DESIGN.md §11). NextEvent computes the
// earliest future cycle at which the core could change architectural or
// accounting state; SkipIdle replays the per-cycle stall bookkeeping of
// a skipped quiescent span so every exported counter is byte-identical
// to a tick-every-cycle run.

import (
	"vlt/internal/isa"
	"vlt/internal/pipe"
)

// NextEvent reports the earliest cycle after now at which Tick could do
// more than idle bookkeeping: retire the completed retire-queue head,
// issue a newly ready instruction from the decouple window, or fetch.
// It is evaluated after the cycle at now has fully run, and never
// returns a cycle later than the core's first actual state change (an
// earlier cycle merely costs a no-op tick). pipe.NeverDone means the
// core is idle until the machine controller releases it.
func (c *Core) NextEvent(now uint64) uint64 {
	if c.Err != nil || !c.active {
		return pipe.NeverDone
	}
	ev := uint64(pipe.NeverDone)
	// Retirement: the in-order head completes at its DoneCycle (issued
	// barriers wait on the machine controller and contribute nothing; a
	// backlog already done retires next cycle).
	if h := c.rob.Front(); h != nil && h.Issued {
		ev = pipe.EventAt(ev, now, h.DoneCycle)
	}
	// Issue: scan the decouple-window prefix exactly as issue() does —
	// a control uop past the head is a sequencing point that hides
	// everything younger.
	window := c.cfg.DecoupleWindow
	if window < 1 {
		window = 1
	}
	for slot := 0; slot < len(c.fetchQ) && slot < window; slot++ {
		u := c.fetchQ[slot]
		if u == nil || u.Issued {
			continue // holes only exist mid-tick; defensive
		}
		info := u.Dyn.Inst.Op.Info()
		if info.Class == isa.ClassCtl && u.Dyn.Inst.Op != isa.OpSetVL {
			if slot != 0 {
				break
			}
			return now + 1 // head control uop issues next cycle
		}
		r, known := u.ReadyCycle()
		if !known {
			continue // gated on an unresolved producer
		}
		if r <= now {
			return now + 1 // ready but width- or port-limited
		}
		if r < ev {
			ev = r
		}
	}
	// Fetch: the gates resolve even when the queues are full; an open
	// core with queue space fetches (or misses) next cycle. Full queues
	// are unblocked by retirement or issue, covered above.
	ev, open := c.fe.Event(ev, now)
	if open && len(c.fetchQ) < c.cfg.DecoupleWindow+c.cfg.Width && c.rob.Len() < c.cfg.RetireQueue {
		return now + 1
	}
	return ev
}

// SkipIdle replays the skipped quiescent cycles [from, to): every
// non-control uop in the decouple-window prefix charges StallOperand
// once per cycle it waits on operands (the span is quiescent, so all of
// them wait the whole span and no memory-port stall can occur — port
// stalls require a ready instruction).
func (c *Core) SkipIdle(from, to uint64) {
	if c.Err != nil || !c.active {
		return
	}
	window := c.cfg.DecoupleWindow
	if window < 1 {
		window = 1
	}
	stalls := uint64(0)
	for slot := 0; slot < len(c.fetchQ) && slot < window; slot++ {
		u := c.fetchQ[slot]
		if u == nil || u.Issued {
			continue
		}
		info := u.Dyn.Inst.Op.Info()
		if info.Class == isa.ClassCtl && u.Dyn.Inst.Op != isa.OpSetVL {
			break // sequencing point: issue() never scans past it
		}
		stalls++
	}
	c.StallOperand += (to - from) * stalls
}
