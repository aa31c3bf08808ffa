package core

import (
	"fmt"
	"strings"

	"vlt/internal/guard"
	"vlt/internal/stats"
)

// This file wires the guard package into the machine: the
// forward-progress watchdog, the runtime invariant auditor and the
// retired-instruction ring buffer, plus the diagnostic dump every typed
// guard error carries.

// retiredTotal sums instructions retired across every pipeline.
func (m *Machine) retiredTotal() uint64 {
	var n uint64
	for _, su := range m.sus {
		n += su.Retired
	}
	for _, c := range m.lcs {
		n += c.Retired
	}
	return n
}

// initGuard builds the watchdog, the retired-instruction ring and — when
// auditing is enabled — the auditor with every cross-layer invariant
// registered. Called after the components exist, before registerMetrics.
func (m *Machine) initGuard() {
	m.watchdog = guard.NewWatchdog(m.cfg.StallLimit)
	m.ring = guard.NewRing(16)
	if !m.cfg.Audit.Enabled() {
		return
	}
	a := guard.NewAuditor()
	for i, su := range m.sus {
		a.Register(fmt.Sprintf("su%d.pipeline", i), su.CheckInvariants)
		a.Register(fmt.Sprintf("su%d.cache-counters", i), su.CheckCacheCounters)
		a.Register(fmt.Sprintf("su%d.waiting", i), su.CheckWaiting)
	}
	for i, c := range m.lcs {
		a.Register(fmt.Sprintf("lane%d.pipeline", i), c.CheckInvariants)
	}
	if m.vu != nil {
		a.Register("vcl.scoreboard", m.vu.CheckScoreboard)
		a.Register("vcl.occupancy", m.vu.CheckOccupancy)
		a.Register("vcl.pending-counts", m.vu.CheckPending)
	}
	a.Register("l2.cache-counters", m.l2.CheckInvariants)
	// Every retirement passes through onRetire, so a unit count that
	// drifts from the machine's tally by any amount, up or down, lost or
	// invented a retirement.
	a.Register("machine.retired-conserved", func() error {
		if n := m.retiredTotal(); n != m.retired {
			return fmt.Errorf("units count %d retired instructions, the machine saw %d retire", n, m.retired)
		}
		return nil
	})
	// The registry's metric set is fixed at construction: components may
	// not register metrics once the run has started (callers holding
	// Machine.Registry() get a read-only contract). The baseline is
	// captured lazily on the first sweep because initGuard runs before
	// registerMetrics builds the registry.
	regBaseline := -1
	a.Register("machine.registry-stable", func() error {
		n := m.reg.NumMetrics()
		if regBaseline < 0 {
			regBaseline = n
			return nil
		}
		if n != regBaseline {
			return fmt.Errorf("metric registry grew mid-run: %d metrics, was %d", n, regBaseline)
		}
		return nil
	})
	a.Register("machine.region-cycles", func() error {
		var sum uint64
		for _, region := range m.regions() {
			sum += m.regionCycles[region]
		}
		if sum != m.now+1 {
			return fmt.Errorf("region cycle sum %d != elapsed cycles %d", sum, m.now+1)
		}
		return nil
	})
	m.auditor = a
}

// registerGuardMetrics exposes the guard state on the registry (scope
// "guard") so -json exports show whether a run was self-checked and how
// many audit sweeps it passed.
func (m *Machine) registerGuardMetrics(r *stats.Registry) {
	r.CounterFn("audit.enabled", func() uint64 {
		if m.auditor != nil {
			return 1
		}
		return 0
	})
	r.CounterFn("audit.passes", func() uint64 {
		if m.auditor != nil {
			return m.auditor.Passes
		}
		return 0
	})
	r.CounterFn("audit.checks", func() uint64 {
		if m.auditor != nil {
			return m.auditor.Checks
		}
		return 0
	})
	r.CounterFn("stall.limit", func() uint64 { return m.watchdog.Limit() })
}

// stallError assembles the typed forward-progress failure with the full
// diagnostic dump.
func (m *Machine) stallError(kind string, now, limit uint64) *guard.StallError {
	return &guard.StallError{
		Config: m.cfg.Name,
		Kind:   kind,
		Cycle:  now,
		Limit:  limit,
		Dump:   m.dump(now),
	}
}

// dump renders the whole machine's occupancy at cycle now: per-thread
// architectural state, every pipeline's queues and head-of-ROB, the
// vector control logic's scoreboard and the last retired instructions.
func (m *Machine) dump(now uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %s at cycle %d: %d instructions retired\n",
		m.cfg.Name, now, m.retiredTotal())
	for t := 0; t < m.cfg.NumThreads; t++ {
		th := m.vm.Thread(t)
		state := "running"
		if th.Halted {
			state = "halted"
		}
		fmt.Fprintf(&sb, "thread %d: pc=%d %s\n", t, th.PC, state)
	}
	for _, su := range m.sus {
		sb.WriteString(su.DebugDump(now))
	}
	if m.vu != nil {
		sb.WriteString(m.vu.DebugDump(now))
	}
	for _, c := range m.lcs {
		sb.WriteString(c.DebugDump(now))
	}
	fmt.Fprintf(&sb, "l2: reads=%d writes=%d bank-stalls=%d\n",
		m.l2.Reads, m.l2.Writes, m.l2.BankStalls)
	code := m.vm.Prog.Code
	fmt.Fprintf(&sb, "last %d retired instructions:\n%s", m.ring.Len(),
		m.ring.Dump(func(pc int) fmt.Stringer { return &code[pc] }))
	return sb.String()
}
