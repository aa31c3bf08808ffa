package lane

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements deep copying of a lane core for machine forking
// (core.Machine.Fork). The core owns its I-cache, predictor, queues and
// uop arena; it borrows the functional machine and the shared L2, which
// the caller rebases onto the clone's copies.

// Clone returns a deep copy of the core running against the given
// (cloned) functional machine and L2. The core's arena is registered on
// cl before any uop is cloned. The OnRetire callback is NOT carried
// over — it closes over the parent machine; the caller re-wires it.
func (c *Core) Clone(cl *pipe.Cloner, vmach *vm.VM, l2 *mem.L2) *Core {
	n := &Core{
		ID:     c.ID,
		cfg:    c.cfg,
		vmach:  vmach,
		icache: c.icache.Clone(l2),
		l2:     l2,
		pred:   c.pred.Clone(),
		tid:    c.tid,
		active: c.active,
		Err:    c.Err,

		Fetched:      c.Fetched,
		Issued:       c.Issued,
		Retired:      c.Retired,
		StallOperand: c.StallOperand,
		StallMemPort: c.StallMemPort,
	}
	cl.RegisterArena(&c.arena, &n.arena)
	// fetchQ may contain positional nil holes (issued entries not yet
	// compacted); Cloner.Uop(nil) == nil preserves them in place.
	n.fetchQ = make([]*pipe.Uop, 0, cap(c.fetchQ))
	for _, u := range c.fetchQ {
		n.fetchQ = append(n.fetchQ, cl.Uop(u))
	}
	n.rob = c.rob.Clone(cl)
	n.fe = c.fe.Clone(cl)
	return n
}
