package vcl

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
)

// This file implements copying of the vector control logic for machine
// forking (core.Machine.Fork). The VCL borrows the machine's uop arena
// and the shared L2, which the caller passes in as the fork's copies.
// Its queues, windows and last-writer slots hold uop handles, which
// name the same uops in the forked arena, so they copy as plain values.

// Clone returns a copy of the VCL over the given (forked) arena and L2.
func (v *VCL) Clone(arena *pipe.Arena, l2 *mem.L2) *VCL {
	n := *v
	n.arena, n.l2 = arena, l2
	n.parts = make([]*partition, len(v.parts))
	for i, p := range v.parts {
		np := *p
		np.viq, np.win = p.viq.Clone(), pipe.CloneIDs(p.win)
		n.parts[i] = &np
	}
	return &n
}
