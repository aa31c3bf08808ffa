package scalar

// This file is the scalar unit's contribution to the machine's
// event-driven scheduler (DESIGN.md §11). NextEvent computes the
// earliest future cycle at which the unit could change architectural or
// accounting state; SkipIdle replays the per-cycle bookkeeping of a
// skipped quiescent span — round-robin advances and the stall counters
// Tick charges even when no instruction moves — so every exported
// counter is byte-identical to a tick-every-cycle run. Neither restates
// a stage's rule: both ask the predicates the Tick steps ask
// (Uop.RetireCycle, the ready cycles issue reads, headStall with
// chargeStall, and fetchable), so skipping cannot drift from ticking.

import "vlt/internal/pipe"

// NextEvent reports the earliest cycle after now at which Tick could do
// more than idle bookkeeping: retire a completed ROB head, issue a
// ready window entry, dispatch a movable fetch-queue head, or fetch. It
// is evaluated after the cycle at now has fully run, and never returns
// a cycle later than the unit's first actual state change (an earlier
// cycle merely costs a no-op tick). pipe.NeverDone means the unit is
// idle until some other component feeds it. Each stage asks the rule
// its Tick step asks: RetireCycle, issueQ's ready cycles, headStall and
// fetchable.
func (u *Unit) NextEvent(now uint64) uint64 {
	if u.Err != nil {
		return pipe.NeverDone
	}
	ev := uint64(pipe.NeverDone)
	// Retirement: heads with no retire cycle known (barriers, vltcfg,
	// dropped completions) are released by the machine controller or
	// another component's event; a head already retirable is waiting on
	// width and retires next cycle.
	for _, c := range u.ctxs {
		if h := c.rob.Front(); h != 0 {
			if ev = pipe.EventAt(ev, now, u.arena.At(h).RetireCycle()); ev == now+1 {
				return ev
			}
		}
	}
	// Issue: an issueQ entry becomes ready at its cached cycle; entries
	// already ready are waiting on width or ports and will issue on a
	// following cycle. A parked uop waits on a producer's issue: an
	// issueQ entry's, covered here, or a vector uop's, a VCL event.
	for _, e := range u.issueQ {
		if ev = pipe.EventAt(ev, now, e.ready); ev == now+1 {
			return ev
		}
	}
	// Dispatch: any movable fetch-queue head is progress next cycle
	// (possibly deferred a few cycles by the round-robin scan order —
	// returning an earlier cycle is safe, the tick simply re-evaluates).
	// A blocked head is unblocked by a retirement or an issue, covered
	// above, or by VCL dispatch, a VCL event.
	for _, c := range u.ctxs {
		if head := c.fetchQ.Front(); head != 0 {
			if s, _ := u.headStall(c, head); s == stallNone {
				return now + 1
			}
		}
	}
	// Fetch: an open context with queue room fetches next cycle; a
	// gated one contributes the cycle its gate resolves. A full queue
	// is unblocked by dispatch draining it.
	for _, c := range u.ctxs {
		if !u.fetchable(c) {
			continue
		}
		var open bool
		if ev, open = c.fe.Event(u.arena, ev, now); open {
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
	// fetchable context whose fetch is branch-gated.
	branchGated := uint64(0)
	for _, c := range u.ctxs {
		if u.fetchable(c) && c.fe.BranchGated(from) {
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
	start := wrap(u.retireRR+1, n)
	for p := 0; p < n; p++ {
		off := uint64(((p-start)%n + n) % n)
		if off >= k {
			continue
		}
		cnt := (k - off + uint64(n) - 1) / uint64(n)
		for i := 0; i < n; i++ {
			c := u.ctxs[(p+i)%n]
			head := c.fetchQ.Front()
			if head == 0 {
				continue
			}
			s, counted := u.headStall(c, head)
			u.chargeStall(s, counted, cnt)
			if s != stallROB {
				break // budget zeroed: the scan ends here every cycle
			}
		}
	}

	u.retireRR = int((uint64(u.retireRR) + k) % uint64(n))
	u.fetchRR = int((uint64(u.fetchRR) + k) % uint64(n))
}
