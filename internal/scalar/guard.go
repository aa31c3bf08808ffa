package scalar

import (
	"fmt"
	"strings"

	"vlt/internal/pipe"
)

// This file is the scalar unit's self-checking surface for
// internal/guard: pipeline invariants for the runtime auditor, the
// occupancy dump for stall diagnostics, and the drop-completion fault
// hook the injection tests use to prove the watchdog fires.

// CheckInvariants verifies the unit's internal accounting: window
// entries must be unissued and unretired, every structure must respect
// its capacity, and the stage counters must be monotone along the
// pipeline (retired <= dispatched <= fetched).
func (u *Unit) CheckInvariants() error {
	if len(u.window) > u.cfg.WindowSize {
		return fmt.Errorf("su%d: window holds %d entries, capacity %d", u.ID, len(u.window), u.cfg.WindowSize)
	}
	for _, id := range u.window {
		if w := u.arena.At(id); w.Issued || w.Retired {
			return fmt.Errorf("su%d: window entry t%d @%d (%s) is issued=%t retired=%t",
				u.ID, w.Thread, w.Dyn.PC, w.Dyn.Inst, w.Issued, w.Retired)
		}
	}
	if total := u.robTotal(); total > u.cfg.ROBSize {
		return fmt.Errorf("su%d: %d ROB entries in use, capacity %d", u.ID, total, u.cfg.ROBSize)
	}
	for _, c := range u.ctxs {
		if c.rob.Len() > c.robCap {
			return fmt.Errorf("su%d ctx%d: ROB holds %d entries, per-context cap %d",
				u.ID, c.slot, c.rob.Len(), c.robCap)
		}
	}
	if u.Retired > u.Dispatched || u.Dispatched > u.Fetched || u.IssuedCount > u.Dispatched {
		return fmt.Errorf("su%d: stage counters not monotone: fetched=%d dispatched=%d issued=%d retired=%d",
			u.ID, u.Fetched, u.Dispatched, u.IssuedCount, u.Retired)
	}
	return nil
}

// CheckCacheCounters verifies the L1 caches' internal consistency
// (hits + misses == accesses on both the I- and D-side).
func (u *Unit) CheckCacheCounters() error {
	if err := u.icache.CheckInvariants(); err != nil {
		return fmt.Errorf("su%d l1i: %w", u.ID, err)
	}
	if err := u.dcache.CheckInvariants(); err != nil {
		return fmt.Errorf("su%d l1d: %w", u.ID, err)
	}
	return nil
}

// DebugDump renders the unit's occupancy at cycle now for a diagnostic
// dump: per-context PC-side state, queue fills and the waiting window.
func (u *Unit) DebugDump(now uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "su%d: window=%d/%d rob=%d/%d fetched=%d dispatched=%d issued=%d retired=%d\n",
		u.ID, len(u.window), u.cfg.WindowSize, u.robTotal(), u.cfg.ROBSize,
		u.Fetched, u.Dispatched, u.IssuedCount, u.Retired)
	for _, c := range u.ctxs {
		if !c.active {
			continue
		}
		head := "empty"
		if id := c.rob.Front(); id != 0 {
			h := u.arena.At(id)
			head = fmt.Sprintf("t%d @%d %s (issued=%t done@%d)",
				h.Thread, h.Dyn.PC, h.Dyn.Inst, h.Issued, h.DoneCycle)
		}
		fmt.Fprintf(&sb, "  ctx%d thread %d: pc=%d fetchq=%d rob=%d/%d head=%s%s\n",
			c.slot, c.tid, u.vmach.Thread(c.tid).PC, c.fetchQ.Len(), c.rob.Len(), c.robCap, head, c.fe.State(u.arena, now))
	}
	return sb.String()
}

// InjectDropCompletion arms the drop-completion fault: the next uop this
// unit issues gets DoneCycle=NeverDone, so it blocks retirement forever
// and the forward-progress watchdog must abort the run.
func (u *Unit) InjectDropCompletion() { u.dropNext = true }

// applyDropCompletion consumes an armed drop-completion fault on w.
func (u *Unit) applyDropCompletion(w *pipe.Uop) {
	if u.dropNext {
		u.dropNext = false
		w.DoneCycle = pipe.NeverDone
	}
}
