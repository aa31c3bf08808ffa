package scalar

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// This file implements deep copying of the scalar unit for machine
// forking (core.Machine.Fork). Ownership rules: the unit owns its
// caches, predictor, SMT contexts, scheduler window and uop arena; it
// borrows the functional machine, the shared L2 and the vector sink,
// which the caller rebases onto the clone's copies. All uop pointers
// funnel through the shared pipe.Cloner so aliasing with the VCL's
// queues (vector uops sit in an SU ROB *and* a VCL partition at once)
// is preserved.

// Clone returns a deep copy of the unit running against the given
// (cloned) functional machine and L2. The unit's arena is registered on
// cl before any uop is cloned — the VCL's queues hold uops allocated
// here, so the machine must clone its scalar units before its VCL. The
// OnRetire callback and the vector sink are NOT carried over: both
// reference the parent machine's assembly; the caller sets them with
// direct assignment and SetVectorSink.
func (u *Unit) Clone(cl *pipe.Cloner, vmach *vm.VM, l2 *mem.L2) *Unit {
	n := &Unit{
		ID:       u.ID,
		cfg:      u.cfg,
		vmach:    vmach,
		icache:   u.icache.Clone(l2),
		dcache:   u.dcache.Clone(l2),
		pred:     u.pred.Clone(),
		fetchRR:  u.fetchRR,
		retireRR: u.retireRR,
		Err:      u.Err,
		dropNext: u.dropNext,

		Fetched:     u.Fetched,
		Dispatched:  u.Dispatched,
		IssuedCount: u.IssuedCount,
		Retired:     u.Retired,

		FetchStallBranch: u.FetchStallBranch,
		FetchStallICache: u.FetchStallICache,
		DispStallROB:     u.DispStallROB,
		DispStallWindow:  u.DispStallWindow,
		DispStallVIQ:     u.DispStallVIQ,
	}
	cl.RegisterArena(&u.arena, &n.arena)
	n.window = make([]*pipe.Uop, 0, cap(u.window))
	for _, w := range u.window {
		n.window = append(n.window, cl.Uop(w))
	}
	for _, c := range u.ctxs {
		n.ctxs = append(n.ctxs, c.clone(cl))
	}
	// Scratch buffers hold no state between cycles; fresh ones at the
	// original capacities keep the clone's steady state allocation-free.
	n.fetchReady = make([]*context, 0, cap(u.fetchReady))
	return n
}

// clone returns a deep copy of one SMT context. The fetch queue and ROB
// are rebased at offset 0 of fresh rings of the same capacity; content
// and order — everything the timing model observes — are identical.
func (c *context) clone(cl *pipe.Cloner) *context {
	return &context{
		slot:   c.slot,
		tid:    c.tid,
		active: c.active,
		fetchQ: c.fetchQ.Clone(cl),
		rob:    c.rob.Clone(cl),
		robCap: c.robCap,
		fe:     c.fe.Clone(cl),
	}
}

// SetVectorSink rebinds the unit's vector dispatch target. Machine
// forking uses it to point a cloned unit at the cloned VCL (the sink
// cannot be passed to Clone: the VCL is cloned after the units, whose
// arenas own the uops in its queues).
func (u *Unit) SetVectorSink(v VectorSink) { u.vsink = v }
