package lane

import (
	"fmt"
	"strings"
)

// This file is the lane core's self-checking surface for internal/guard:
// pipeline invariants for the runtime auditor and the occupancy dump for
// stall diagnostics.

// CheckInvariants verifies the core's internal accounting: structures
// within capacity, fetch-queue entries present and unissued (the issue
// walk relies on it), and stage counters monotone along the pipeline
// (retired <= issued <= fetched).
func (c *Core) CheckInvariants() error {
	if c.rob.Len() > c.cfg.RetireQueue {
		return fmt.Errorf("lane%d: retire queue holds %d entries, capacity %d",
			c.ID, c.rob.Len(), c.cfg.RetireQueue)
	}
	if max := c.cfg.DecoupleWindow + c.cfg.Width; len(c.fetchQ) > max {
		return fmt.Errorf("lane%d: fetch queue holds %d entries, capacity %d", c.ID, len(c.fetchQ), max)
	}
	for i, id := range c.fetchQ {
		if id == 0 {
			return fmt.Errorf("lane%d: fetch-queue slot %d is a hole", c.ID, i)
		}
		if u := c.arena.At(id); u.Issued || u.Retired {
			return fmt.Errorf("lane%d: fetch-queue entry t%d @%d (%s) is issued=%t retired=%t",
				c.ID, u.Thread, u.Dyn.PC, u.Dyn.Inst, u.Issued, u.Retired)
		}
	}
	if c.Retired > c.Issued || c.Issued > c.Fetched {
		return fmt.Errorf("lane%d: stage counters not monotone: fetched=%d issued=%d retired=%d",
			c.ID, c.Fetched, c.Issued, c.Retired)
	}
	if err := c.icache.CheckInvariants(); err != nil {
		return fmt.Errorf("lane%d icache: %w", c.ID, err)
	}
	return nil
}

// DebugDump renders the core's occupancy at cycle now for a diagnostic
// dump.
func (c *Core) DebugDump(now uint64) string {
	if !c.active {
		return fmt.Sprintf("lane%d: inactive\n", c.ID)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "lane%d thread %d: pc=%d fetchq=%d rob=%d/%d fetched=%d issued=%d retired=%d%s\n",
		c.ID, c.tid, c.vmach.Thread(c.tid).PC, len(c.fetchQ), c.rob.Len(), c.cfg.RetireQueue,
		c.Fetched, c.Issued, c.Retired, c.fe.State(c.arena, now))
	if id := c.rob.Front(); id != 0 {
		h := c.arena.At(id)
		fmt.Fprintf(&sb, "  head t%d @%-5d %-24s issued=%t done@%d\n",
			h.Thread, h.Dyn.PC, h.Dyn.Inst, h.Issued, h.DoneCycle)
	}
	return sb.String()
}
