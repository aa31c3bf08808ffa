package scalar

import (
	"fmt"
	"strings"

	"vlt/internal/pipe"
)

// This file is the scalar unit's self-checking surface for
// internal/guard: pipeline invariants for the runtime auditor and the
// occupancy dump for stall diagnostics.

// CheckInvariants verifies the unit's internal accounting: window
// entries must be unissued and unretired, every structure must respect
// its capacity, and the stage counters must be monotone along the
// pipeline (retired <= dispatched <= fetched).
func (u *Unit) CheckInvariants() error {
	if n := u.windowLen(); n > u.cfg.WindowSize {
		return fmt.Errorf("su%d: window holds %d entries, capacity %d", u.ID, n, u.cfg.WindowSize)
	}
	for _, e := range u.issueQ {
		if w := u.arena.At(e.id); w.Issued || w.Retired {
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

// CheckWaiting verifies the window's split against the producers. The
// window is every unissued scalar uop in the ROBs: each parked one must
// have a producer whose completion is unknown, the parked count must
// match, and the rest must be issueQ's entries. Every issueQ entry's
// cached ready cycle must equal its producers' latest DoneCycle, with
// the entries in age order.
func (u *Unit) CheckWaiting() error {
	for i, e := range u.issueQ {
		w := u.arena.At(e.id)
		if r := latestDone(u.arena, w); e.ready != r || w.Parked() {
			return fmt.Errorf("su%d: issue entry t%d @%d (%s) caches ready cycle %d, its producers complete at %d (parked=%t)",
				u.ID, w.Thread, w.Dyn.PC, w.Dyn.Inst, e.ready, r, w.Parked())
		}
		if i > 0 && u.issueQ[i-1].age >= e.age {
			return fmt.Errorf("su%d: issue entry t%d @%d (%s) out of age order", u.ID, w.Thread, w.Dyn.PC, w.Dyn.Inst)
		}
	}
	window, parked := 0, 0
	for _, c := range u.ctxs {
		for i := 0; i < c.rob.Len(); i++ {
			w := u.arena.At(c.rob.At(i))
			if info := w.Dyn.Inst.Op.Info(); w.Issued || info.Vector || info.Sequencing {
				continue
			}
			window++
			if !w.Parked() {
				continue
			}
			if latestDone(u.arena, w) != pipe.NeverDone {
				return fmt.Errorf("su%d: parked uop t%d @%d (%s) has every producer complete",
					u.ID, w.Thread, w.Dyn.PC, w.Dyn.Inst)
			}
			parked++
		}
	}
	if parked != u.parked || window-parked != len(u.issueQ) {
		return fmt.Errorf("su%d: the ROBs hold %d unissued uops, %d parked; the unit counts %d parked and lists %d",
			u.ID, window, parked, u.parked, len(u.issueQ))
	}
	return nil
}

// latestDone returns the latest DoneCycle among w's producers, 0 when
// it has none: NeverDone while one of them has not completed.
func latestDone(a *pipe.Arena, w *pipe.Uop) uint64 {
	var r uint64
	for _, p := range w.Producers.IDs() {
		r = max(r, a.At(p).DoneCycle)
	}
	return r
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
	fmt.Fprintf(&sb, "su%d: window=%d/%d (%d parked) rob=%d/%d fetched=%d dispatched=%d issued=%d retired=%d\n",
		u.ID, u.windowLen(), u.cfg.WindowSize, u.parked, u.robTotal(), u.cfg.ROBSize,
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
