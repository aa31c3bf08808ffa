package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"

	"vlt"
)

var update = flag.Bool("update", false, "regenerate the goldens in testdata/ from the program")

// vltexpAll runs the repository's `vltexp -all` and returns its output.
func vltexpAll(t *testing.T) string {
	t.Helper()
	cmd := exec.Command("go", "run", "./cmd/vltexp", "-all")
	cmd.Dir = ".."
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("vltexp -all: %v\n%s", err, stderr.String())
	}
	return string(out)
}

// TestGoldens regenerates testdata/ from the program under -update: the
// text `vltexp -all` prints, the digests of every grid /v1/run body and
// every /v1/experiment body, and the explore cells' and searches'
// results. It refuses to write expall.golden unless renderAll, the
// reproduce workloads' copy of vltexp's print sequence, prints the same
// text on both engines. Without -update it is skipped; the smoke test
// checks the goldens.
func TestGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate the goldens")
	}
	t.Setenv("VLT_AUDIT", "off") // the auditor's counters are part of every metric snapshot

	text := vltexpAll(t)
	for _, jobs := range []int{0, 1} {
		got, err := renderAll(vlt.NewEngine(jobs))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkText(got, text); err != nil {
			t.Fatalf("renderAll on NewEngine(%d) differs from vltexp -all: %v", jobs, err)
		}
	}
	writeGolden(t, "testdata/expall.golden", text)

	var digests strings.Builder
	n := startNode(nil)
	defer n.close()
	c := newClient()
	defer c.CloseIdleConnections()
	for _, cell := range gridCells() {
		body, _, err := getOK(c, runURL(n.srv.URL, cell))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&digests, "%s %s\n", runDigestKey(cell), digest(body))
	}
	for _, name := range experimentNames {
		body, _, err := getOK(c, experimentURL(n.srv.URL, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&digests, "%s %s\n", experimentDigestKey(name), digest(body))
	}
	writeGolden(t, "testdata/digests.txt", digests.String())

	var explore strings.Builder
	for _, cell := range exploreCells() {
		res, err := vlt.Run(cell.workload, cell.machine, vlt.Options{Scale: cell.scale})
		if err != nil || !res.Verified {
			t.Fatalf("%s: verified %t, %v", cell, res.Verified, err)
		}
		fmt.Fprintln(&explore, cellGoldenLine(cell, res))
	}
	for _, w := range exploreSearches {
		res, err := vlt.SearchLanePartition(w, vlt.MachineV4CMT, vlt.SearchOptions{Scale: 4, Workers: 1})
		if err != nil || !res.Verified {
			t.Fatalf("search %s: verified %t, %v", w, res.Verified, err)
		}
		fmt.Fprintln(&explore, searchGoldenLine(w, res))
	}
	writeGolden(t, "testdata/explore.golden", explore.String())
}

// TestExpallGoldenIsVltexp checks that expall.golden is still exactly
// what `vltexp -all` prints. The smoke test checks renderAll against the
// golden, so together they keep the reproduce workloads doing vltexp's
// work when vltexp's output changes.
func TestExpallGoldenIsVltexp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs vltexp -all")
	}
	t.Setenv("VLT_AUDIT", "off")
	if err := checkText(vltexpAll(t), expallGolden); err != nil {
		t.Fatalf("vltexp -all differs from testdata/expall.golden (regenerate with -update): %v", err)
	}
}

func writeGolden(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSmoke runs every workload for one short round, checks every
// output against the goldens, and checks that every declared metric is
// reported. It makes no timing assertions.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("VLT_AUDIT", "off")
	for _, info := range suite {
		traced := info.name == "reproduce"
		o := runWorkload(info, 1, 0.001, t.TempDir(), traced, true)
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: correct %t, %d of %d operations failed: %v", info.name, o.Correct, o.Failed, o.Attempted, o.Errors)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		for _, m := range want {
			if got, ok := o.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("%s: metric %s missing or malformed: %+v", info.name, m.Name, got)
			}
		}
		if len(o.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", info.name, len(o.Metrics), len(want))
		}
	}
}

// TestDeclaredMetrics checks that the metrics and workloads the harness
// emits and the ones BENCHMARK.json declares match in both directions.
func TestDeclaredMetrics(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(kind string, got []metricDef, names, units, betters []string) {
		if len(got) != len(names) {
			t.Errorf("%s: harness emits %d metrics, BENCHMARK.json declares %d", kind, len(got), len(names))
		}
		decl := map[string]int{}
		for i, n := range names {
			decl[n] = i
		}
		for _, m := range got {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			i, ok := decl[m.Name]
			if !ok {
				t.Errorf("%s: %s emitted but not declared", kind, m.Name)
				continue
			}
			if units[i] != m.Unit || betters[i] != m.Better {
				t.Errorf("%s: %s is %s/%s, declared %s/%s", kind, m.Name, m.Unit, m.Better, units[i], betters[i])
			}
			delete(decl, m.Name)
		}
		for n := range decl {
			t.Errorf("%s: %s declared but not emitted", kind, n)
		}
	}
	var names, units, betters []string
	for _, m := range bf.EndToEnd {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end: %s has bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	declared("end_to_end", endToEnd, names, units, betters)
	names, units, betters = nil, nil, nil
	for _, m := range bf.PerLayer {
		names, units, betters = append(names, m.Name), append(units, m.Unit), append(betters, m.Better)
	}
	declared("per_layer", perLayer, names, units, betters)

	if len(bf.Workloads) != len(suite) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the suite has %d", len(bf.Workloads), len(suite))
	}
	for i, w := range bf.Workloads {
		if w.Name != suite[i].name {
			t.Errorf("workload %d: declared %q, suite has %q", i, w.Name, suite[i].name)
		}
		if !valid.MatchString(w.Name) {
			t.Errorf("bad workload name %q", w.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
	if lo, hi := lowest([]float64{4, 1, 3, 2}), highest([]float64{4, 1, 3, 2}); lo != 1 || hi != 4 {
		t.Errorf("lowest, highest = %g, %g, want 1, 4", lo, hi)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1
	}
	for _, tc := range []struct{ p, want float64 }{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 99); got != 3 {
		t.Errorf("p99 of three values = %g, want the maximum", got)
	}
}

func TestCellPickerIsSeeded(t *testing.T) {
	const cells = 78
	draw := func(seed int64, client int) []int {
		p := newCellPicker(seed, client)
		var out []int
		for i := 0; i < 7800; i++ {
			out = append(out, p.next(cells))
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed and client gave different sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(draw(8, 0)) || fmt.Sprint(a) == fmt.Sprint(draw(7, 1)) {
		t.Fatal("another seed or client gave the same sequence")
	}
	hits := make([]int, cells)
	for _, v := range a {
		hits[v]++
	}
	for i, n := range hits {
		if n < 50 || n > 150 { // 100 expected
			t.Errorf("cell %d drawn %d times of %d, want about %d", i, n, len(a), len(a)/cells)
		}
	}
}

func TestParseTop(t *testing.T) {
	data, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := parseTop(string(data))
	if len(rows) == 0 {
		t.Fatal("no rows parsed")
	}
	byName := map[string]profRow{}
	for _, r := range rows {
		byName[r.name] = r
	}
	if r, ok := byName["vlt/internal/core.(*Machine).RunUntil"]; !ok || r.cumPct <= 0 || r.cumPct > 100 {
		t.Errorf("RunUntil row: %+v (found %t)", r, ok)
	}
	shares := sharesOf(rows)
	for _, s := range profShares {
		if v, ok := shares[s.metric]; !ok || v < 0 || v > 200 {
			t.Errorf("%s = %g (present %t)", s.metric, v, ok)
		}
	}
	if shares["prof.run_until_pct"] <= shares["prof.scalar_tick_pct"] {
		t.Errorf("RunUntil (%g%%) should cover the scalar tick (%g%%)", shares["prof.run_until_pct"], shares["prof.scalar_tick_pct"])
	}
	// The fixture's rows, summed by hand.
	for metric, want := range map[string]float64{
		"prof.build_pct":  0.048 + 0.048,          // buildMXM, buildRadix
		"prof.verify_pct": 0.19 + 0.096 + 4*0.048, // verifyRadix, verifyMpenc, verifyBT, verifyBarnes, verifyMultprec, verifyOcean
		"prof.gc_pct": 0.43 + 4.5 + 11.69 + 4.55 + 0.62 + // gcBgMarkWorker, mallocgc, gcWriteBarrier, bulkBarrierPreWrite{,SrcOnly}
			0.43 + 0.048, // the gcWriteBarrier2 and gcWriteBarrier1 stubs, self time
	} {
		if got := shares[metric]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", metric, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRecord{
		{Name: "round", ID: 1, Start: 0, End: 10 * ms},
		{Name: "op", ID: 2, Parent: 1, Req: 2, Start: 1 * ms, End: 5 * ms},
		{Name: "store", ID: 3, Parent: 2, Req: 2, Start: 2 * ms, End: 3 * ms},
	}
	got := selfTimes(spans)
	for name, want := range map[string]float64{"round": 6, "op": 3, "store": 1} {
		if got[name] != want {
			t.Errorf("self time of %s = %g ms, want %g", name, got[name], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	rec := func(v float64) record {
		return record{Workloads: []outcome{{Workload: "w", Metrics: map[string]metric{"op_ms_p50": {Value: v}}}}}
	}
	recs := func(vs ...float64) []record {
		var out []record
		for _, v := range vs {
			out = append(out, rec(v))
		}
		return out
	}
	bounds := map[string]float64{"op_ms_p50": 0.1}
	parent := recs(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		b    []record
		want string
	}{
		{recs(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "improved"},
		{recs(100, 100, 101, 99, 100, 100, 102, 98, 100, 101), "unchanged"},
		{recs(130, 131, 129, 130, 132, 128, 130, 131, 129, 130), "regressed"},
	} {
		rows := compareRows(parent, tc.b, bounds)
		if len(rows) != 1 || rows[0].verdict != tc.want {
			t.Errorf("verdict %+v, want %s", rows, tc.want)
		}
	}
	if rows := compareRows(recs(100), recs(50), bounds); rows[0].verdict != "unchanged" {
		t.Errorf("one pair: verdict %s, want unchanged (no gain is claimed from one pair)", rows[0].verdict)
	}
	noisy := recs(50, 150, 60, 140, 70, 130, 80, 120, 90, 110)
	if rows := compareRows(noisy, recs(100, 100, 100, 100, 100, 100, 100, 100, 100, 100), bounds); rows[0].verdict != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", rows[0].verdict)
	}
}
