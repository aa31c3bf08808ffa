package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// declaredBounds returns the regression bound of every end-to-end
// metric BENCHMARK.json declares.
func declaredBounds(path string) (map[string]float64, error) {
	bf, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range bf.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// comparison is one (metric, workload) row of -compare.
type comparison struct {
	workload, metric, unit string
	a, b                   []float64
	medA, medB, iqrA, iqrB float64
	wonB                   float64 // share of pairs B reads better, ties counting for neither
	verdict                string
}

// minPairs is the fewest pairs a verdict resting on who won them needs.
const minPairs = 10

// compareRows judges B against A for every (metric, workload) both sets
// of records hold. Pairs are the i-th record of each side. B has
// improved when, over at least minPairs pairs, it wins at least nine
// tenths of them and the medians differ by more than A's spread (its
// interquartile range). B has regressed when its median is worse than
// A's by more than the metric's bound; per-layer metrics, which have
// none, use the improvement rule mirrored. A row is unresolved when A's
// own spread is wider than the bound, unless every run of B reads better
// than every run of A, and a per-layer row whose medians differ is
// unresolved with fewer than minPairs pairs.
func compareRows(as, bs []record, bounds map[string]float64) []comparison {
	type key struct{ workload, metric string }
	values := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, rec := range recs {
			for _, o := range rec.Workloads {
				for name, m := range o.Metrics {
					k := key{o.Workload, name}
					out[k] = append(out[k], m.Value)
				}
			}
		}
		return out
	}
	va, vb := values(as), values(bs)
	defs := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[m.Name] = m
	}
	var rows []comparison
	for k, a := range va {
		b, ok := vb[k]
		def, known := defs[k.metric]
		if !ok || !known {
			continue
		}
		c := comparison{workload: k.workload, metric: k.metric, unit: def.Unit, a: a, b: b}
		q1, med, q3 := quartiles(a)
		c.medA, c.iqrA = med, q3-q1
		q1, med, q3 = quartiles(b)
		c.medB, c.iqrB = med, q3-q1
		sign := 1.0 // > 0: higher reads better
		if def.Better == "lower" {
			sign = -1
		}
		pairs, wonB, wonA := min(len(a), len(b)), 0, 0
		for i := 0; i < pairs; i++ {
			switch d := sign * (b[i] - a[i]); {
			case d > 0:
				wonB++
			case d < 0:
				wonA++
			}
		}
		c.wonB = float64(wonB) / float64(max(1, pairs))
		enough := pairs >= minPairs
		diff := math.Abs(c.medB - c.medA)
		worse := sign * (c.medA - c.medB) / math.Abs(c.medA) // > 0: B is worse
		bound, hasBound := bounds[k.metric]
		spreadA := c.iqrA / math.Abs(c.medA)
		switch {
		case c.medA == c.medB && c.iqrA == 0 && c.iqrB == 0:
			c.verdict = "unchanged"
		case enough && c.wonB >= 0.9 && diff > c.iqrA:
			c.verdict = "improved"
		case !hasBound && enough && float64(wonA)/float64(pairs) >= 0.9 && diff > c.iqrA:
			c.verdict = "regressed"
		case !hasBound && !enough:
			c.verdict = "unresolved"
		case hasBound && spreadA > bound && !allBetter(b, a, sign):
			c.verdict = "unresolved"
		case hasBound && worse > bound:
			c.verdict = "regressed"
		default:
			c.verdict = "unchanged"
		}
		rows = append(rows, c)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(b, a []float64, sign float64) bool {
	for _, x := range b {
		for _, y := range a {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare implements -compare A... -- B...: one row per (metric,
// workload) with both sides' medians and interquartile ranges, the
// share of pairs B won, and the verdict against BENCHMARK.json's bounds.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "vltbench: -compare wants A.json... -- B.json...")
		return 2
	}
	load := func(paths []string) ([]record, error) {
		var recs []record
		for _, p := range paths {
			rec, err := readRecord(p)
			if err != nil {
				return nil, err
			}
			recs = append(recs, rec)
		}
		return recs, nil
	}
	as, err := load(args[:split])
	if err != nil {
		fmt.Fprintf(stderr, "vltbench: %v\n", err)
		return 1
	}
	bs, err := load(args[split+1:])
	if err != nil {
		fmt.Fprintf(stderr, "vltbench: %v\n", err)
		return 1
	}
	bounds, err := declaredBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "vltbench: %v\n", err)
		return 1
	}
	printComparison(stdout, compareRows(as, bs, bounds))
	return 0
}

func printComparison(w io.Writer, rows []comparison) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tA median\tA IQR\tB median\tB IQR\tB won\tverdict\t")
	for _, c := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.4g\t%.3g\t%.4g\t%.3g\t%.0f%%\t%s\t\n",
			c.workload, c.metric, c.unit, len(c.a), len(c.b), c.medA, c.iqrA, c.medB, c.iqrB, 100*c.wonB, c.verdict)
	}
	tw.Flush()
}
