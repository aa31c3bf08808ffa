package scalar

// This file is the scalar unit's contribution to the machine's
// event-driven scheduler (DESIGN.md §11). NextEvent computes the
// earliest future cycle at which the unit could change architectural or
// accounting state; SkipIdle replays the per-cycle bookkeeping of a
// skipped quiescent span — round-robin advances and the stall counters
// Tick charges even when no instruction moves — so every exported
// counter is byte-identical to a tick-every-cycle run.

import (
	"vlt/internal/isa"
	"vlt/internal/pipe"
)

// NextEvent reports the earliest cycle after now at which Tick could do
// more than idle bookkeeping: retire a completed ROB head, issue a
// ready window entry, dispatch a movable fetch-queue head, or fetch. It
// is evaluated after the cycle at now has fully run, and never returns
// a cycle later than the unit's first actual state change (an earlier
// cycle merely costs a no-op tick). pipe.NeverDone means the unit is
// idle until some other component feeds it.
func (u *Unit) NextEvent(now uint64) uint64 {
	if u.Err != nil {
		return pipe.NeverDone
	}
	ev := uint64(pipe.NeverDone)
	// Retirement: each context's ROB head completes at DoneCycle, or
	// CommitCycle for early-committed vector instructions. Heads with
	// neither known (barriers, vltcfg, dropped completions) are released
	// by the machine controller or another component's event.
	for _, c := range u.ctxs {
		h := c.rob.Front()
		if h == nil {
			continue
		}
		t := h.DoneCycle
		if h.CommitCycle < t {
			t = h.CommitCycle
		}
		if t == pipe.NeverDone {
			continue
		}
		if t <= now {
			return now + 1 // retirement already pending (width-limited)
		}
		if t < ev {
			ev = t
		}
	}
	// Issue: a window entry becomes ready when its last producer
	// completes; entries already ready are waiting on width or ports and
	// will issue on a following cycle.
	for _, w := range u.window {
		r, known := w.ReadyCycle()
		if !known {
			continue
		}
		if r <= now {
			return now + 1
		}
		if r < ev {
			ev = r
		}
	}
	// Dispatch: any movable fetch-queue head is progress next cycle
	// (possibly deferred a few cycles by the round-robin scan order —
	// returning an earlier cycle is safe, the tick simply re-evaluates).
	robTot := u.robTotal()
	for _, c := range u.ctxs {
		head := c.fetchQ.Front()
		if head == nil {
			continue
		}
		if c.rob.Len() >= c.robCap || robTot >= u.cfg.ROBSize {
			continue // unblocked by a retirement, covered above
		}
		info := head.Dyn.Inst.Op.Info()
		switch {
		case info.Vector:
			if u.vsink != nil {
				if ok, _ := u.vsink.PeekEnqueue(head); !ok {
					continue // unblocked by VCL dispatch, a VCL event
				}
			}
			return now + 1
		case info.Class == isa.ClassCtl && head.Dyn.Inst.Op != isa.OpSetVL:
			return now + 1 // control uops always enter the ROB
		default:
			if len(u.window) >= u.cfg.WindowSize {
				continue // unblocked by an issue, covered above
			}
			return now + 1
		}
	}
	// Fetch: an open context with queue room fetches next cycle; a
	// gated one contributes the cycle its gate resolves.
	for _, c := range u.ctxs {
		if !c.active || c.fetchQ.Len() >= 2*u.cfg.Width {
			continue // unblocked by dispatch draining the queue
		}
		var open bool
		if ev, open = c.fe.Event(ev, now); open {
			return now + 1 // the next tick fetches (or misses)
		}
	}
	return ev
}

// SkipIdle replays the skipped quiescent cycles [from, to): the retire
// and fetch round-robins advance once per cycle, every branch-gated
// context charges FetchStallBranch per cycle, and the dispatch scan's
// stall counters are replayed per round-robin phase — the phase decides
// which blocked heads are charged before the scan truncates at the
// first window/VIQ stall. The span is quiescent by construction
// (NextEvent returned a cycle >= to), so queue contents, gating state
// and the ROB census are constant across it.
func (u *Unit) SkipIdle(from, to uint64) {
	if u.Err != nil {
		return
	}
	k := to - from
	n := len(u.ctxs)

	// fetch charges one FetchStallBranch per cycle for every
	// active context with queue space whose fetch is branch-gated.
	branchGated := uint64(0)
	for _, c := range u.ctxs {
		if c.active && c.fetchQ.Len() < 2*u.cfg.Width && c.fe.BranchGated(from) {
			branchGated++
		}
	}
	u.FetchStallBranch += k * branchGated

	// Dispatch stalls, replayed per phase. Cycle j of the span scans
	// contexts starting at (retireRR+1+j) mod n (retire increments the
	// round-robin before dispatch reads it); for each phase that occurs,
	// walk the scan exactly as dispatch would: a ROB-blocked head is
	// charged and skipped, the first window- or VIQ-blocked head is
	// charged and zeroes the budget, ending the whole scan.
	robTot := u.robTotal()
	start := (u.retireRR + 1) % n
	for p := 0; p < n; p++ {
		off := uint64(((p-start)%n + n) % n)
		if off >= k {
			continue
		}
		cnt := (k - off + uint64(n) - 1) / uint64(n)
		for i := 0; i < n; i++ {
			c := u.ctxs[(p+i)%n]
			head := c.fetchQ.Front()
			if head == nil {
				continue
			}
			if c.rob.Len() >= c.robCap || robTot >= u.cfg.ROBSize {
				u.DispStallROB += cnt
				continue
			}
			info := head.Dyn.Inst.Op.Info()
			if info.Vector {
				if u.vsink != nil {
					if _, counted := u.vsink.PeekEnqueue(head); counted {
						u.vsink.CreditRejects(cnt)
					}
				}
				u.DispStallVIQ += cnt
			} else if info.Class != isa.ClassCtl || head.Dyn.Inst.Op == isa.OpSetVL {
				u.DispStallWindow += cnt
			}
			break // budget zeroed: the scan ends here every cycle
		}
	}

	u.retireRR += int(k)
	u.fetchRR += int(k)
}
