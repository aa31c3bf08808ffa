package lane

// This file is the lane core's contribution to the machine's
// event-driven scheduler (DESIGN.md §11). NextEvent computes the
// earliest future cycle at which the core could change architectural or
// accounting state; SkipIdle replays the per-cycle stall bookkeeping of
// a skipped quiescent span so every exported counter is byte-identical
// to a tick-every-cycle run. Both walk the decouple window with
// visible, the walk issue takes, and ask the rules issue and fetch ask
// (Uop.ReadyCycle, queueRoom), so skipping cannot drift from ticking.

import "vlt/internal/pipe"

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
	if id := c.rob.Front(); id != 0 {
		if h := c.arena.At(id); h.Issued {
			ev = pipe.EventAt(ev, now, h.DoneCycle)
		}
	}
	// Issue: walk the decouple window as issue does. A control uop at
	// the head issues next cycle; any other entry issues once its
	// operands are ready, and one already ready is waiting on width or
	// a memory port.
	w := c.window()
	for slot := 0; ; slot++ {
		info := c.visible(w, slot)
		if info == nil {
			break
		}
		if info.Sequencing {
			return now + 1
		}
		if ev = pipe.EventAt(ev, now, c.arena.At(w[slot]).ReadyCycle()); ev == now+1 {
			return ev
		}
	}
	// Fetch: the gates resolve even when the queues are full; an open
	// core with queue space fetches (or misses) next cycle. Full queues
	// are unblocked by retirement or issue, covered above.
	ev, open := c.fe.Event(c.arena, ev, now)
	if open && c.queueRoom() {
		return now + 1
	}
	return ev
}

// SkipIdle replays the skipped quiescent cycles [from, to): every
// entry of the decouple-window walk charges StallOperand once per cycle
// it waits on operands (the span is quiescent, so all of them wait the
// whole span, none is a control uop at the head, and no memory-port
// stall can occur — port stalls require a ready instruction).
func (c *Core) SkipIdle(from, to uint64) {
	if c.Err != nil || !c.active {
		return
	}
	w, stalls := c.window(), 0
	for c.visible(w, stalls) != nil {
		stalls++
	}
	c.StallOperand += (to - from) * uint64(stalls)
}
