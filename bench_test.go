package vlt

// The benchmark harness regenerates every table and figure of the paper's
// evaluation under `go test -bench`. Each benchmark runs the full
// experiment and reports the headline numbers as custom metrics (speedups
// as "x", area overheads as "%"), so `go test -bench=. -benchmem` prints
// the whole reproduction in one pass. The ablation benchmarks quantify
// the design choices called out in DESIGN.md.

import (
	"fmt"
	"strings"
	"testing"

	"vlt/internal/core"
	"vlt/internal/guard"
	"vlt/internal/lane"
)

// BenchmarkTable1 reports the component areas (mm², Table 1).
func BenchmarkTable1(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = 0
		for _, r := range Table1() {
			total += r.AreaMM2
		}
	}
	for _, r := range Table1() {
		b.ReportMetric(r.AreaMM2, "mm2:"+metricName(r.Component))
	}
}

// BenchmarkTable2 reports the area overhead of every VLT configuration
// over the base processor (Table 2).
func BenchmarkTable2(b *testing.B) {
	var rows []Table2Row
	for i := 0; i < b.N; i++ {
		rows = Table2()
	}
	for _, r := range rows {
		b.ReportMetric(r.OverheadPct, "%area:"+r.Config)
	}
}

// BenchmarkTable4 measures every workload's characterization on the base
// processor (Table 4) and reports the vectorization percentages.
func BenchmarkTable4(b *testing.B) {
	var rows []Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = testEngine.Table4(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeasuredPercentVect, "%vect:"+r.Workload)
		if r.MeasuredAvgVL > 0 {
			b.ReportMetric(r.MeasuredAvgVL, "avgVL:"+r.Workload)
		}
	}
}

// BenchmarkFigure1 sweeps the lane count for all nine workloads and
// reports the 8-lane speedups.
func BenchmarkFigure1(b *testing.B) {
	var data Figure1Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Figure1(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.Speedup[len(r.Speedup)-1], "x8L:"+r.Workload)
	}
}

// BenchmarkFigure3 measures the VLT speedup with 2 and 4 vector threads.
func BenchmarkFigure3(b *testing.B) {
	var data Figure3Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Figure3(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.V2, "xV2:"+r.Workload)
		b.ReportMetric(r.V4, "xV4:"+r.Workload)
	}
}

// BenchmarkFigure4 measures the datapath-utilization compression and
// reports each workload's VLT-4 total as a percentage of the base bar.
func BenchmarkFigure4(b *testing.B) {
	var data Figure4Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Figure4(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(100*float64(r.V4.Total())/float64(r.Base.Total()), "%bar:"+r.Workload)
	}
}

// BenchmarkFigure5 sweeps the scalar-unit design space.
func BenchmarkFigure5(b *testing.B) {
	var data Figure5Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Figure5(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.Speedup[MachineV4SMT], "xV4SMT:"+r.Workload)
		b.ReportMetric(r.Speedup[MachineV4CMT], "xV4CMT:"+r.Workload)
	}
}

// BenchmarkFigure6 compares 8 VLT scalar threads against the CMT.
func BenchmarkFigure6(b *testing.B) {
	var data Figure6Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Figure6(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.VLTOverCMT, "xCMT:"+r.Workload)
	}
}

// --- full-sweep engine throughput ---

// BenchmarkExpAll regenerates the entire evaluation (every table, figure
// and extension study) at scale=1 through the experiment engine, once on
// one slot and once on GOMAXPROCS slots. A fresh engine per iteration
// keeps the memoization cache inside the measured region, so the metric
// tracks the real `vltexp -all` cost and the dedup factor
// (unique/submitted cells) stays honest. VLT_AUDIT is pinned off, as in
// BenchmarkRunBaseMXM, so its profiles are of the program vltexp runs.
func BenchmarkExpAll(b *testing.B) {
	b.Setenv("VLT_AUDIT", "off")
	for _, bc := range []struct {
		name string
		jobs int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st EngineStats
			for i := 0; i < b.N; i++ {
				eng := NewEngine(bc.jobs)
				if _, err := eng.CollectAll(1); err != nil {
					b.Fatal(err)
				}
				st = eng.Stats()
			}
			b.ReportMetric(float64(st.Unique), "cells-simulated")
			b.ReportMetric(float64(st.Submitted), "cells-requested")
		})
	}
}

// BenchmarkRunBaseMXM is the metrics-registry overhead benchmark: one
// full mxm run on the base machine, the configuration the golden-metrics
// file pins down. The registry registers pointers to the counters the
// pipeline models already maintain — no atomics, no per-event map
// lookups, metric reads only at Snapshot() time — so this benchmark's
// ns/op must stay within noise (<2%) of the pre-registry simulator.
// Compare against a pre-registry checkout with `benchstat` to audit.
// VLT_AUDIT is pinned off here: testing.Testing() is true under -bench,
// so the unset default would silently enable the invariant auditor and
// shift the baseline; BenchmarkRunBaseMXMAudit measures that overhead
// explicitly.
func BenchmarkRunBaseMXM(b *testing.B) {
	b.Setenv("VLT_AUDIT", "off")
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := Run("mxm", MachineBase, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkRunBaseMXMAudit is the same run with the invariant auditor
// enabled (every-64-cycles sweep) — the audit-on overhead budget in
// DESIGN.md §8 is this benchmark's ns/op versus BenchmarkRunBaseMXM's
// and must stay under 5%.
func BenchmarkRunBaseMXMAudit(b *testing.B) {
	b.Setenv("VLT_AUDIT", "on")
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := Run("mxm", MachineBase, Options{})
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkCellKey times one cell key, the cost every vltd request and
// engine submission pays before any lookup (mpenc on V4-CMT).
func BenchmarkCellKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CellKey("mpenc", MachineV4CMT, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- per-workload simulation throughput ---

// BenchmarkSimulate measures raw simulator throughput (simulated cycles
// per wall-clock second) for one representative workload per class,
// with the auditor off as in BenchmarkRunBaseMXM.
func BenchmarkSimulate(b *testing.B) {
	b.Setenv("VLT_AUDIT", "off")
	for _, tc := range []struct {
		workload string
		machine  Machine
	}{
		{"mxm", MachineBase},
		{"mpenc", MachineV4CMT},
		{"radix", MachineVLTScalar},
	} {
		b.Run(tc.workload+"-"+string(tc.machine), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				r, err := Run(tc.workload, tc.machine, Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// cellCycles simulates c with mutate (when non-nil) applied to its
// resolved configuration and returns its cycle count.
func cellCycles(b *testing.B, c simCell, mutate func(*core.Config)) uint64 {
	b.Helper()
	m := buildCell(b, c, mutate).machine(b)
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles
}

// benchScheduler runs mxm on the base machine, unaudited as in
// BenchmarkRunBaseMXM and without the result check, with event-driven
// cycle skipping on or off.
func benchScheduler(b *testing.B, noSkip bool) {
	b.ReportAllocs()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = cellCycles(b, simCell{"mxm", MachineBase, Options{}},
			func(c *core.Config) { c.NoSkip, c.Audit = noSkip, guard.AuditOff })
	}
	b.ReportMetric(float64(cycles), "simcycles")
}

// BenchmarkBaseMXMSkip and BenchmarkBaseMXMTick are the cycle-skip
// overhead pair scripts/check.sh compares: mxm on the base machine
// saturates the vector unit, so there is almost nothing to skip and the
// skipping run's ns/op bounds the event scheduler's cost over ticking
// every cycle.
func BenchmarkBaseMXMSkip(b *testing.B) { benchScheduler(b, false) }

// BenchmarkBaseMXMTick is BenchmarkBaseMXMSkip ticking every cycle.
func BenchmarkBaseMXMTick(b *testing.B) { benchScheduler(b, true) }

// --- ablation studies (design choices in DESIGN.md §5) ---

// BenchmarkAblationChaining quantifies vector chaining: mxm (long
// dependent vector chains, 8-cycle occupancies) on the base machine with
// and without chained operand forwarding.
func BenchmarkAblationChaining(b *testing.B) {
	var with, without uint64
	for i := 0; i < b.N; i++ {
		with = cellCycles(b, simCell{"mxm", MachineBase, Options{}}, nil)
		without = cellCycles(b, simCell{"mxm", MachineBase, Options{}}, func(c *core.Config) {
			c.VCL.DisableChaining = true
		})
	}
	b.ReportMetric(float64(without)/float64(with), "x-chaining-gain")
}

// BenchmarkAblationBankHash quantifies the hashed L2 bank mapping: radix
// scalar threads with and without the XOR bank hash.
func BenchmarkAblationBankHash(b *testing.B) {
	run := func(plain bool) uint64 {
		return cellCycles(b, simCell{"radix", MachineVLTScalar, Options{}}, func(c *core.Config) {
			c.L2.PlainBanks = plain
		})
	}
	var hashed, plain uint64
	for i := 0; i < b.N; i++ {
		hashed = run(false)
		plain = run(true)
	}
	b.ReportMetric(float64(plain)/float64(hashed), "x-hash-gain")
}

// BenchmarkAblationDecoupling quantifies the lane access-decoupling
// queues: radix scalar threads with lookahead 12 versus a strictly
// blocking in-order pipeline.
func BenchmarkAblationDecoupling(b *testing.B) {
	run := func(window int) uint64 {
		return cellCycles(b, simCell{"radix", MachineVLTScalar, Options{}}, func(c *core.Config) {
			c.LaneCore.DecoupleWindow = window
		})
	}
	var decoupled, blocking uint64
	for i := 0; i < b.N; i++ {
		decoupled = run(lane.DefaultConfig().DecoupleWindow)
		blocking = run(1)
	}
	b.ReportMetric(float64(blocking)/float64(decoupled), "x-decouple-gain")
}

// BenchmarkAblationVCLIssueWidth quantifies the vector issue bandwidth:
// bt (very short vectors, the most issue-hungry workload) under VLT-4
// with VCL issue widths 1, 2 and 4.
func BenchmarkAblationVCLIssueWidth(b *testing.B) {
	for _, width := range []int{1, 2, 4} {
		width := width
		b.Run(fmt.Sprintf("issue%d", width), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cycles = cellCycles(b, simCell{"bt", MachineV4CMT, Options{}}, func(c *core.Config) {
					c.VCL.IssueWidth = width
				})
			}
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkAblationStrictVectorBackend approximates the cost of
// Espasa-style early commit of vector instructions. Early commit is
// structural and cannot be disabled by configuration, so the machine
// without it is approximated by a chaining-disabled, issue-width-1 VCL,
// the closest strictly-in-order vector backend, on mxm/base.
func BenchmarkAblationStrictVectorBackend(b *testing.B) {
	var relaxed, strict uint64
	for i := 0; i < b.N; i++ {
		relaxed = cellCycles(b, simCell{"mxm", MachineBase, Options{}}, nil)
		strict = cellCycles(b, simCell{"mxm", MachineBase, Options{}}, func(c *core.Config) {
			c.VCL.DisableChaining = true
			c.VCL.IssueWidth = 1
		})
	}
	b.ReportMetric(float64(strict)/float64(relaxed), "x-backend-gain")
}

func metricName(s string) string {
	s = strings.ReplaceAll(s, " ", "-")
	s = strings.ReplaceAll(s, "(", "")
	s = strings.ReplaceAll(s, ")", "")
	if len(s) > 18 {
		return s[:18]
	}
	return s
}

// BenchmarkExtension16Lanes reports the 16-lane study's speedups.
func BenchmarkExtension16Lanes(b *testing.B) {
	var data Ext16Data
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.Extension16Lanes(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.SpeedupAt16, "x16L:"+r.Workload)
	}
}

// BenchmarkExtensionPhaseSwitching reports the lane-reclamation study.
func BenchmarkExtensionPhaseSwitching(b *testing.B) {
	var data ExtReclaimData
	for i := 0; i < b.N; i++ {
		var err error
		data, err = testEngine.ExtensionPhaseSwitching(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range data.Rows {
		b.ReportMetric(r.ReclaimSpeedup, "xReclaim:"+r.Workload)
	}
}

// BenchmarkAblationReplicatedVCL tests the paper's Section 3.2 claim: a
// multiplexed VCL with statically partitioned resources performs as fast
// as a fully replicated one. Reported as replicated-over-multiplexed
// speedup per workload (values near 1.0 confirm the claim).
func BenchmarkAblationReplicatedVCL(b *testing.B) {
	for _, name := range []string{"mpenc", "bt"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var mux, rep uint64
			for i := 0; i < b.N; i++ {
				mux = cellCycles(b, simCell{name, MachineV4CMT, Options{}}, nil)
				rep = cellCycles(b, simCell{name, MachineV4CMT, Options{}}, func(c *core.Config) {
					c.VCL.ReplicatedIssue = true
				})
			}
			b.ReportMetric(float64(mux)/float64(rep), "x-replicated-gain")
		})
	}
}
