package vlt

import (
	"slices"
	"testing"
)

// These tests encode the paper's evaluation shapes as regressions: the
// claims being reproduced are orderings and approximate factors, not
// absolute cycle counts (see EXPERIMENTS.md).

// testEngine is the multi-slot engine the package's tests and benchmarks
// share, so each paper-grid cell is simulated once per `go test .`
// however many tests read it. TestParallelMatchesSerial holds it against
// a one-slot engine.
var testEngine = NewEngine(4)

func TestFigure1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	bySpeed := map[string][]float64{}
	for _, r := range data.Rows {
		bySpeed[r.Workload] = r.Speedup
	}
	at8 := func(w string) float64 { return bySpeed[w][len(Figure1Lanes)-1] }

	// Long-vector workloads scale strongly with lanes.
	if at8("mxm") < 5 {
		t.Errorf("mxm speedup at 8 lanes = %.2f, want >= 5 (paper ~7)", at8("mxm"))
	}
	if at8("sage") < 3.5 {
		t.Errorf("sage speedup at 8 lanes = %.2f, want >= 3.5 (paper ~5)", at8("sage"))
	}
	// Short-vector workloads flatten well below the lane count.
	for _, w := range []string{"mpenc", "trfd", "multprec", "bt"} {
		if at8(w) > 2.2 {
			t.Errorf("%s speedup at 8 lanes = %.2f, should flatten below 2.2", w, at8(w))
		}
	}
	// Scalar workloads are flat.
	for _, w := range []string{"radix", "ocean", "barnes"} {
		if s := at8(w); s < 0.9 || s > 1.2 {
			t.Errorf("%s speedup at 8 lanes = %.2f, should be ~1.0", w, s)
		}
	}
	// Monotonicity: the long-vector curves never decrease.
	for _, w := range []string{"mxm", "sage"} {
		s := bySpeed[w]
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1]*0.98 {
				t.Errorf("%s speedup not monotone: %v", w, s)
			}
		}
	}
}

// TestVectorFreeIgnoresLanes pins the premise Figure 1 simulates a
// vector-free workload once on: ocean and barnes, and only they, build
// base programs with no vector instruction, and such a program's base
// run at any lane count has the same cycles and retired count and a
// snapshot that differs only in the lane count and the all-idle census
// (3 datapaths × lanes × cycles).
func TestVectorFreeIgnoresLanes(t *testing.T) {
	for _, scale := range []int{1, 2} {
		var free []string
		for _, w := range Workloads() {
			spec, err := resolveCell(w, MachineBase, Options{Scale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if spec.w.Build(spec.params).VectorFree() {
				free = append(free, w)
			}
		}
		if !slices.Equal(free, []string{"ocean", "barnes"}) {
			t.Errorf("scale %d: vector-free base programs %v, want [ocean barnes]", scale, free)
		}
	}
	for _, w := range []string{"ocean", "barnes"} {
		var ref Result
		for _, lanes := range []int{1, 2, 4, 8, 16} {
			res, err := Run(w, MachineBase, Options{Scale: 1, Lanes: lanes})
			if err != nil {
				t.Fatalf("%s at %d lanes: %v", w, lanes, err)
			}
			if got, _ := res.Metrics.Get("vcl.util.all_idle"); got != float64(3*lanes)*float64(res.Cycles) {
				t.Errorf("%s at %d lanes: vcl.util.all_idle = %v, want 3 × %d × %d cycles", w, lanes, got, lanes, res.Cycles)
			}
			if lanes == 1 {
				ref = res
				continue
			}
			if res.Cycles != ref.Cycles || res.Retired != ref.Retired {
				t.Errorf("%s at %d lanes: %d cycles, %d retired; at 1 lane %d, %d",
					w, lanes, res.Cycles, res.Retired, ref.Cycles, ref.Retired)
			}
			if len(res.Metrics) != len(ref.Metrics) {
				t.Fatalf("%s at %d lanes: %d metrics, at 1 lane %d", w, lanes, len(res.Metrics), len(ref.Metrics))
			}
			for i, m := range res.Metrics {
				if m != ref.Metrics[i] && m.Name != "vcl.lanes" && m.Name != "vcl.util.all_idle" {
					t.Errorf("%s at %d lanes: %s = %v, at 1 lane %s = %v", w, lanes, m.Name, m.Value, ref.Metrics[i].Name, ref.Metrics[i].Value)
				}
			}
		}
	}
}

func TestFigure3Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Figure3Row{}
	for _, r := range data.Rows {
		rows[r.Workload] = r
	}
	for w, r := range rows {
		// Paper: 2-thread speedups 1.14-2.15, 4-thread 1.40-2.3; our
		// substrate ranges slightly wider on trfd.
		if r.V2 < 1.1 || r.V2 > 2.4 {
			t.Errorf("%s VLT-2 speedup = %.2f, outside plausible band", w, r.V2)
		}
		if r.V4 < 1.3 || r.V4 > 3.6 {
			t.Errorf("%s VLT-4 speedup = %.2f, outside plausible band", w, r.V4)
		}
		// More threads never hurt.
		if r.V4 < r.V2*0.95 {
			t.Errorf("%s: VLT-4 (%.2f) should not trail VLT-2 (%.2f)", w, r.V4, r.V2)
		}
	}
	// bt (lowest opportunity, shortest vectors) gains least with 2 threads
	// among {bt, trfd, multprec}, as in the paper.
	if rows["bt"].V2 > rows["trfd"].V2 || rows["bt"].V2 > rows["multprec"].V2 {
		t.Errorf("bt should gain least: bt=%.2f trfd=%.2f multprec=%.2f",
			rows["bt"].V2, rows["trfd"].V2, rows["multprec"].V2)
	}
}

func TestFigure4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Figure4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data.Rows {
		// VLT compresses execution: total datapath-cycles shrink.
		if r.V2.Total() >= r.Base.Total() {
			t.Errorf("%s: VLT-2 total (%d) should be below base (%d)",
				r.Workload, r.V2.Total(), r.Base.Total())
		}
		if r.V4.Total() > r.V2.Total() {
			t.Errorf("%s: VLT-4 total (%d) should not exceed VLT-2 (%d)",
				r.Workload, r.V4.Total(), r.V2.Total())
		}
		// Busy element work is invariant: the same program executes.
		if r.V2.Busy != r.Base.Busy || r.V4.Busy != r.Base.Busy {
			t.Errorf("%s: busy datapath-cycles changed: base=%d v2=%d v4=%d",
				r.Workload, r.Base.Busy, r.V2.Busy, r.V4.Busy)
		}
		// Idle time dominates the base bars for these low-DLP codes.
		idle := r.Base.AllIdle + r.Base.Stalled
		if idle*10 < r.Base.Total()*7 {
			t.Errorf("%s: base stall+idle fraction too low for a short-vector code", r.Workload)
		}
	}
}

func TestFigure5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Figure5(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data.Rows {
		s := r.Speedup
		// Replication beats multiplexing, but V2-SMT stays close to
		// V2-CMP (paper: "no significant difference").
		if s[MachineV2SMT] > s[MachineV2CMP]*1.05 {
			t.Errorf("%s: V2-SMT (%.2f) should not beat V2-CMP (%.2f)",
				r.Workload, s[MachineV2SMT], s[MachineV2CMP])
		}
		if s[MachineV2SMT] < s[MachineV2CMP]*0.70 {
			t.Errorf("%s: V2-SMT (%.2f) too far below V2-CMP (%.2f)",
				r.Workload, s[MachineV2SMT], s[MachineV2CMP])
		}
		// A single SMT SU cannot feed 4 vector threads (paper's key
		// Figure-5 result): V4-SMT clearly below V4-CMP.
		if s[MachineV4SMT] > s[MachineV4CMP]*0.95 {
			t.Errorf("%s: V4-SMT (%.2f) should trail V4-CMP (%.2f)",
				r.Workload, s[MachineV4SMT], s[MachineV4CMP])
		}
		// The hybrid V4-CMT approaches the fully replicated V4-CMP.
		if s[MachineV4CMT] < s[MachineV4CMP]*0.75 {
			t.Errorf("%s: V4-CMT (%.2f) too far below V4-CMP (%.2f)",
				r.Workload, s[MachineV4CMT], s[MachineV4CMP])
		}
		// V4-CMT beats V4-SMT.
		if s[MachineV4CMT] < s[MachineV4SMT] {
			t.Errorf("%s: V4-CMT (%.2f) should beat V4-SMT (%.2f)",
				r.Workload, s[MachineV4CMT], s[MachineV4SMT])
		}
		// The heterogeneous V4-CMP-h does not beat V4-CMP.
		if s[MachineV4CMPh] > s[MachineV4CMP]*1.02 {
			t.Errorf("%s: V4-CMP-h (%.2f) should not beat V4-CMP (%.2f)",
				r.Workload, s[MachineV4CMPh], s[MachineV4CMP])
		}
	}
}

func TestFigure6Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Figure6(1)
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[string]float64{}
	for _, r := range data.Rows {
		ratios[r.Workload] = r.VLTOverCMT
	}
	// Paper: VLT about twice CMT for radix and ocean.
	if ratios["radix"] < 1.25 {
		t.Errorf("radix VLT/CMT = %.2f, want clearly > 1 (paper ~2)", ratios["radix"])
	}
	if ratios["ocean"] < 1.5 {
		t.Errorf("ocean VLT/CMT = %.2f, want >= 1.5 (paper ~2)", ratios["ocean"])
	}
	// Paper: parity on barnes.
	if r := ratios["barnes"]; r < 0.85 || r > 1.3 {
		t.Errorf("barnes VLT/CMT = %.2f, want ~1.0 (paper parity)", r)
	}
	// Ordering: barnes gains least from VLT scalar threads.
	if ratios["barnes"] > ratios["radix"] || ratios["barnes"] > ratios["ocean"] {
		t.Errorf("barnes (%.2f) should gain least: radix %.2f, ocean %.2f",
			ratios["barnes"], ratios["radix"], ratios["ocean"])
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rows, err := testEngine.Table4(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PaperAvgVL > 0 {
			rel := (r.MeasuredAvgVL - r.PaperAvgVL) / r.PaperAvgVL
			if rel > 0.2 || rel < -0.2 {
				t.Errorf("%s: avg VL %.1f vs paper %.1f", r.Workload, r.MeasuredAvgVL, r.PaperAvgVL)
			}
		}
		diff := r.MeasuredPercentVect - r.PaperPercentVect
		if diff > 8 || diff < -8 {
			t.Errorf("%s: %%vect %.1f vs paper %.1f", r.Workload, r.MeasuredPercentVect, r.PaperPercentVect)
		}
		if r.PaperOppPct > 0 {
			od := r.MeasuredOppPct - r.PaperOppPct
			if od > 12 || od < -12 {
				t.Errorf("%s: opportunity %.1f vs paper %.1f", r.Workload, r.MeasuredOppPct, r.PaperOppPct)
			}
		}
	}
}

func TestTable2MatchesPaperExactly(t *testing.T) {
	want := map[string]float64{
		"V2-SMT": 0.8, "V4-SMT": 1.3, "V2-CMP": 12.3, "V2-CMP-h": 3.4,
		"V4-CMP": 36.8, "V4-CMP-h": 10.1, "V4-CMT": 13.8,
	}
	for _, r := range Table2() {
		w := want[r.Config]
		if d := r.OverheadPct - w; d > 0.3 || d < -0.3 {
			t.Errorf("%s overhead %.2f%%, want %.1f%%", r.Config, r.OverheadPct, w)
		}
	}
}

func TestExtension16LanesShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.Extension16Lanes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range data.Rows {
		// The paper's conjecture: a wider machine leaves more lanes idle
		// for a short-vector thread, so VLT recovers at least as much.
		if r.SpeedupAt16 < r.SpeedupAt8*0.97 {
			t.Errorf("%s: VLT gain shrank on 16 lanes (%.2f vs %.2f at 8)",
				r.Workload, r.SpeedupAt16, r.SpeedupAt8)
		}
	}
}

func TestExtensionPhaseSwitchingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.ExtensionPhaseSwitching(1)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]ExtReclaimRow{}
	for _, r := range data.Rows {
		rows[r.Workload] = r
	}
	// mpenc's serial phase has vector work: reclaiming the lanes must pay.
	if rows["mpenc"].ReclaimSpeedup < 1.03 {
		t.Errorf("mpenc reclaim speedup = %.2f, want > 1.03", rows["mpenc"].ReclaimSpeedup)
	}
	// Workloads with scalar-only serial phases should be near-neutral
	// (the drain/synchronization overhead bounds the loss).
	for _, w := range []string{"trfd", "multprec", "bt"} {
		if s := rows[w].ReclaimSpeedup; s < 0.90 || s > 1.10 {
			t.Errorf("%s reclaim speedup = %.2f, want ~1.0 (scalar serial phase)", w, s)
		}
	}
}

// TestExperimentsDeterministic: the harness itself is deterministic —
// running the same figure twice yields identical numbers (no map-order
// or allocator effects leak into results).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	a, err := testEngine.Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testEngine.Figure3(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("figure 3 row %d differs across runs: %+v vs %+v",
				i, a.Rows[i], b.Rows[i])
		}
	}
}
