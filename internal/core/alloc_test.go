package core

import (
	"runtime"
	"testing"

	"vlt/internal/guard"
	"vlt/internal/isa"
	"vlt/internal/workloads"
)

// buildCell builds the named workload on the named machine the way the
// experiment engine does: the machine's natural thread count, the
// scalar-only program variant on the machines without a vector unit.
func buildCell(t *testing.T, workload, machine string, scale int, audit guard.AuditMode) *Machine {
	t.Helper()
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ByName(machine, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Audit = audit
	prog := w.Build(workloads.Params{
		Threads: cfg.NumThreads, Scale: scale,
		ScalarOnly: cfg.Lanes == 0 || cfg.LaneScalarMode,
	})
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSteadyStateAllocations pins the allocation-free steady state: once
// a machine is warm (queues, arenas, scratch buffers and Dyn address
// buffers at their working sizes), a 35,000-cycle window allocates
// (almost) nothing, with or without the invariant auditor. The cells
// cover every pipeline shape: SMT scalar units without a vector unit,
// the base vector machine, 2- and 4-thread VLT partitions, and lane
// cores; each is scaled to run well past the window. Mallocs is
// process-wide, so this test must not run in parallel with others.
func TestSteadyStateAllocations(t *testing.T) {
	const warm, stop, budget = 5_000, 40_000, 50
	cells := []struct {
		workload, machine string
		scale             int
	}{
		{"radix", "CMT", 1},
		{"mxm", "base", 8},
		{"mpenc", "V4-CMT", 4},
		{"trfd", "V2-SMT", 16},
		{"ocean", "VLT-scalar", 2},
	}
	for _, audit := range []guard.AuditMode{guard.AuditOff, guard.AuditOn} {
		for _, c := range cells {
			m := buildCell(t, c.workload, c.machine, c.scale, audit)
			if err := m.RunUntil(warm); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := m.RunUntil(stop)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if m.Now() != stop {
				t.Fatalf("%s/%s finished at cycle %d, before the window ended", c.workload, c.machine, m.Now())
			}
			n := after.Mallocs - before.Mallocs
			t.Logf("%s/%s audit=%s: %d allocations", c.workload, c.machine, audit, n)
			if n > budget {
				t.Errorf("%s/%s audit=%s: %d allocations over cycles [%d, %d), want <= %d",
					c.workload, c.machine, audit, n, warm, stop, budget)
			}
			m.Release()
		}
	}
}

// TestRetiredVectorUopsRecycle pins that every dead uop goes back to the
// machine's arena. What is live at the end of a run is bounded by the pipeline
// (last-writer slots still pinned), not by the run length: a uop that
// died without being recycled would pin its Dyn and address buffer for
// the rest of the run, and the count would grow with the problem size.
// A vector uop whose VCL completion precedes its ROB retirement is the
// case retirement must free.
func TestRetiredVectorUopsRecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every vector cell at scale 4")
	}
	var machines []string
	for _, name := range MachineNames() {
		if cfg, _ := ByName(name, 0, 0); cfg.Lanes > 0 && !cfg.LaneScalarMode {
			machines = append(machines, name)
		}
	}
	for _, w := range workloads.All() {
		if w.Class == workloads.ScalarParallel {
			continue
		}
		for _, machine := range machines {
			cfg, _ := ByName(machine, 0, 0)
			live := func(scale int) int {
				m := buildCell(t, w.Name, machine, scale, guard.AuditOff)
				defer m.Release()
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
				return m.arena.Live()
			}
			// What may legitimately stay live is bounded by the last-writer
			// tables: one pinned uop per register per thread at most.
			pinnable := cfg.NumThreads * isa.NumRegs
			if small, large := live(1), live(4); large > small+pinnable {
				t.Errorf("%s/%s: %d uops unrecycled at scale 1, %d at scale 4 (growth beyond %d pinnable)",
					w.Name, machine, small, large, pinnable)
			}
		}
	}
}
