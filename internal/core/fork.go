package core

import (
	"vlt/internal/pipe"
	"vlt/internal/vcl"
)

// This file implements machine forking: an O(state) deep copy of a
// mid-run machine with no shared mutable aliasing, so parent and clone
// can be simulated independently (including concurrently) and a clone
// run the same way as its parent produces byte-identical metrics. The
// design-space search driver (internal/search) builds on it: a SetForkAt
// hook forks at a repartition decision and steers each copy down a
// different choice.

// ForkPoint identifies one lane-repartition decision presented to a
// SetForkAt hook.
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

// SetForkAt installs (or, with nil, clears) the machine's
// repartition-decision hook. f is called at every lane-repartition
// decision — the cycle a VLTCFG is about to be applied — with the
// machine and the decision's ForkPoint. Returning a positive count from
// PartitionChoices overrides the program's requested partition count;
// returning 0 (or the requested count, or an invalid one) keeps the
// program's choice, cycle-for-cycle identical to running without a
// hook. f may Fork the machine to explore the choices it does not take
// — that is what internal/search does — but must not mutate
// timing-model state. A Fork does not carry the hook: a freshly forked
// machine never re-runs its parent's, so drivers set their own after
// forking.
func (m *Machine) SetForkAt(f func(*Machine, ForkPoint) int) { m.forkAt = f }

// validPartitionChoice reports whether n is a partition count a forkAt
// hook may substitute for the program's request: one owner thread per
// partition, and a count vcl.CheckPartitions accepts.
func (m *Machine) validPartitionChoice(n int) bool {
	return m.vu != nil && n <= m.cfg.NumThreads &&
		vcl.CheckPartitions(m.cfg.VCL, m.vu.Lanes(), n) == nil
}

// PartitionChoices returns, in ascending order, every partition count a
// forkAt hook could choose at a repartition decision on this machine.
// The set is static per configuration: the thread count bounds it and
// vcl.CheckPartitions (lanes, VIQ and window) decides each count.
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
// pipeline's queues of uop handles, guard state and metrics. Parent
// and clone share no mutable state — only immutable structure (the
// program, its decoded instructions) — so both can be simulated
// independently, including from other goroutines, and a clone run
// identically to its parent yields byte-identical metrics.
//
// The clone has no retirement hook and no fork-point hook (set them
// with SetRetireHook and SetForkAt); everything else, including the
// watchdog's stall window, forks with the machine.
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
	// set against its own.
	n.registerMetrics()
	return n
}
