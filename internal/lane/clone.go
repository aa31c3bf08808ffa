package lane

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements copying of a lane core for machine forking
// (core.Machine.Fork). The core owns its I-cache, predictor and queues;
// it borrows the functional machine, the machine's uop arena and the
// shared L2, which the caller passes in as the fork's copies. The
// queues hold uop handles, which name the same uops in the forked
// arena, so they and the front end copy as plain values.

// Clone returns a copy of the core running against the given (forked)
// functional machine, arena and L2. The OnRetire callback is not
// carried over — it closes over the parent machine; the caller sets it.
func (c *Core) Clone(vmach *vm.VM, arena *pipe.Arena, l2 *mem.L2) *Core {
	n := *c
	n.vmach, n.arena, n.l2, n.OnRetire = vmach, arena, l2, nil
	n.icache = c.icache.Clone(l2)
	n.pred = c.pred.Clone()
	n.fetchQ = pipe.CloneIDs(c.fetchQ)
	n.rob = c.rob.Clone()
	return &n
}
