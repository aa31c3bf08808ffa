package core

import (
	"vlt/internal/isa"
	"vlt/internal/pipe"
)

// This file implements machine forking: an O(state) deep copy of a
// mid-run machine with no shared mutable aliasing, so parent and clone
// can be simulated independently (including concurrently) and a clone
// run the same way as its parent produces byte-identical metrics. The
// design-space search driver (internal/search) builds on it: a ForkAt
// hook forks at a repartition decision and steers each copy down a
// different choice.

// ForkPoint identifies one lane-repartition decision presented to a
// ForkAt hook.
type ForkPoint struct {
	// Index is the decision's sequence number, starting at 0. It advances
	// on every applied repartition whether or not a hook is installed, so
	// runs that make the same choices agree on every Index — a forked
	// machine re-presents the decision it was forked at under the same
	// Index.
	Index int

	// Cycle is the cycle the decision is applied at.
	Cycle uint64

	// Thread is the software thread whose VLTCFG triggered the decision.
	Thread int

	// Requested is the partition count the program asked for.
	Requested int
}

// SetForkAt installs (or clears) the machine's repartition-decision
// hook. Fork clears the hook on the clone — a freshly forked machine
// never re-runs its parent's hook — so drivers set their own after
// forking.
func (m *Machine) SetForkAt(f func(*Machine, ForkPoint) int) { m.cfg.ForkAt = f }

// validPartitionChoice reports whether n is a partition count a ForkAt
// hook may substitute for the program's request: every constraint the
// VLTCFG exec-time validation and the VCL's Partition would enforce,
// plus one owner thread per partition.
func (m *Machine) validPartitionChoice(n int) bool {
	return m.vu != nil && n >= 1 && n <= m.cfg.NumThreads &&
		isa.MaxVL%n == 0 && m.vu.ValidPartitionCount(n)
}

// PartitionChoices returns, in ascending order, every partition count a
// ForkAt hook could choose at a repartition decision on this machine.
// The set is static per configuration: lane count, thread count, VIQ
// and window capacities, and MaxVL divisibility all constrain it.
func (m *Machine) PartitionChoices() []int {
	if m.vu == nil {
		return nil
	}
	var out []int
	for n := 1; n <= m.cfg.NumThreads; n++ {
		if m.validPartitionChoice(n) {
			out = append(out, n)
		}
	}
	return out
}

// Fork returns a deep copy of the machine at its current point in the
// run: architectural state, cache hierarchies, the uop arena and every
// pipeline's queues of uop handles, guard state, metrics and recorded
// samples. Parent and clone share no mutable state — only immutable
// structure (the program, its decoded instructions) — so both can be
// simulated independently, including from other goroutines, and a
// clone run identically to its parent yields byte-identical metrics.
//
// The clone's trace, pipeline-view and Chrome-trace writers are not
// carried over, and its ForkAt hook is cleared; everything else,
// including the watchdog's stall window, forks with the machine.
func (m *Machine) Fork() *Machine {
	n := &Machine{
		cfg:         m.cfg,
		vm:          m.vm.Clone(),
		arena:       m.arena.Clone(),
		l2:          m.l2.Clone(),
		now:         m.now,
		retired:     m.retired,
		skipRetired: m.skipRetired,
		stage:       m.stage,
		decisionSeq: m.decisionSeq,
		regionCur:   m.regionCur,
		regionPend:  m.regionPend,
	}
	n.cfg.ForkAt = nil
	n.locs = append(n.locs, m.locs...)
	n.region = append(n.region, m.region...)
	n.regionCycles = make(map[int64]uint64, len(m.regionCycles))
	for id, c := range m.regionCycles { //vltlint:ignore map-range — order-independent copy
		n.regionCycles[id] = c
	}

	// Components. A uop handle names the same uop in the copied arena,
	// so each component copies its queues as they are; the components
	// borrow the clone's VM, arena, L2 and VCL, and the retire callbacks
	// are re-wired onto the clone.
	if m.vu != nil {
		n.vu = m.vu.Clone(n.arena, n.l2)
	}
	for _, su := range m.sus {
		su := su.Clone(n.vm, n.arena, n.l2, n.vectorSink())
		su.OnRetire = func(u *pipe.Uop) { n.onRetire(u.Thread, u) }
		n.sus = append(n.sus, su)
	}
	for i, c := range m.lcs {
		c := c.Clone(n.vm, n.arena, n.l2)
		c.OnRetire = func(u *pipe.Uop) { n.onRetire(i, u) }
		n.lcs = append(n.lcs, c)
	}

	// Guard: the auditor's checks are closures over the parent's
	// components, so the clone rebuilds them against its own (initGuard)
	// and then carries over the mutable guard state.
	n.initGuard()
	n.watchdog = m.watchdog.Clone()
	n.ring = m.ring.Clone()
	if n.auditor != nil && m.auditor != nil {
		n.auditor.Passes = m.auditor.Passes
		n.auditor.Checks = m.auditor.Checks
	}

	// Metrics: counters and gauges are pointers and closures over the
	// parent's components, so the clone re-registers the identical name
	// set against its own, then carries the sampler's recorded series.
	n.registerMetrics()
	if m.sampler != nil {
		n.sampler = m.sampler.CloneInto(n.reg)
	}
	return n
}
