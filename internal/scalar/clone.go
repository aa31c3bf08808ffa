package scalar

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements copying of the scalar unit for machine forking
// (core.Machine.Fork). The unit owns its caches, predictor, SMT
// contexts and scheduler window; it borrows the functional machine,
// the machine's uop arena, the shared L2 and the vector sink, which the
// caller passes in as the fork's copies. Every queue holds uop handles,
// which name the same uops in the forked arena, so the window, fetch
// queues, ROBs and front ends copy as plain values.

// Clone returns a copy of the unit running against the given (forked)
// functional machine, arena, L2 and vector sink. The OnRetire callback
// is not carried over — it closes over the parent machine; the caller
// sets it.
func (u *Unit) Clone(vmach *vm.VM, arena *pipe.Arena, l2 *mem.L2, vsink VectorSink) *Unit {
	n := *u
	n.vmach, n.arena, n.vsink, n.OnRetire = vmach, arena, vsink, nil
	n.icache, n.dcache = u.icache.Clone(l2), u.dcache.Clone(l2)
	n.pred = u.pred.Clone()
	n.issueQ = append(make([]entry, 0, cap(u.issueQ)), u.issueQ...)
	n.ctxs = make([]*context, len(u.ctxs))
	for i, c := range u.ctxs {
		nc := *c
		nc.fetchQ, nc.rob = c.fetchQ.Clone(), c.rob.Clone()
		n.ctxs[i] = &nc
	}
	// fetchReady holds no state between cycles; a fresh one at the
	// original capacity keeps the clone's steady state allocation-free.
	n.fetchReady = make([]*context, 0, cap(u.fetchReady))
	return &n
}
