package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark workload. setup builds a fresh system under
// test and runs its untimed warm-up, releasing whatever an earlier setup
// built; round runs one round of fixed work, timing each operation with
// run.op; close releases the system.
type workload interface {
	setup(r *run) error
	round(r *run)
	close()
}

// workloadInfo names a workload and builds it.
type workloadInfo struct {
	name string
	make func() workload
}

// suite is the benchmark's fixed suite, in the order -workload all
// runs it. BENCHMARK.json declares the same names and why each exists.
var suite = []workloadInfo{
	{"reproduce", func() workload { return &reproduce{} }},
	{"explore", func() workload { return &explore{} }},
	{"serve-hot", func() workload { return &serveHot{} }},
	{"serve-cold", func() workload { return &serveCold{} }},
}

func lookupWorkload(name string) (workloadInfo, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// run is one workload run: its settings and everything it measures. Its
// methods are safe for concurrent use by a workload's clients.
type run struct {
	seed   int64
	work   string // scratch directory for stores, profiles and spans
	tracer *tracer
	smoke  bool // one set-up, one round: a functional check, not a measurement

	// roundSpan is the span of the round in progress, the parent of its
	// operations' spans. measure sets it while no operation runs.
	roundSpan *span

	mu        sync.Mutex
	nameSeq   int                // scratch directories handed out so far
	ops       []timedOp          // timed operations of the current round
	counts    map[string]float64 // per-layer counts summed over the current segment
	attempted int
	failed    int
	errs      []string
}

// timedOp is one timed operation: its name, which is its kind, and its
// latency.
type timedOp struct {
	name string
	d    time.Duration
}

// op times fn as one operation of the current round and counts it; an
// error from fn is a failed operation.
func (r *run) op(name string, fn func() error) {
	sp := r.tracer.begin(r.roundSpan, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.end()
	r.mu.Lock()
	r.ops = append(r.ops, timedOp{name, d})
	r.mu.Unlock()
	r.check(name, err)
}

// check counts one operation whose outcome is err, timed or not.
func (r *run) check(name string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 20 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

// count adds v to a per-layer count of the current segment.
func (r *run) count(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// scratch returns a fresh, empty directory under the run's work
// directory.
func (r *run) scratch(prefix string) (string, error) {
	r.mu.Lock()
	r.nameSeq++
	dir := filepath.Join(r.work, fmt.Sprintf("%s-%d", prefix, r.nameSeq))
	r.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// segment is the outcome of timed rounds run back to back. Each timed
// metric is computed per round; runWorkload reports the best round.
type segment struct {
	ops     int
	counts  map[string]float64
	rounds  int
	p50     []float64 // median operation latency (ms), per round
	p99     []float64 // nearest-rank 99th percentile latency (ms), per round
	rate    []float64 // operations per second, per round
	allocMB float64   // heap allocation over the segment

	steps   map[string][]float64     // each step metric, per round
	opTotal map[string]time.Duration // summed latency per operation name
}

// measure runs rounds until d has elapsed, and at least one.
func (r *run) measure(w workload, d time.Duration) segment {
	r.mu.Lock()
	r.counts = map[string]float64{}
	r.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	seg := segment{steps: map[string][]float64{}, opTotal: map[string]time.Duration{}}
	start := time.Now()
	for seg.rounds == 0 || time.Since(start) < d {
		// The operations are kept for one round only, so the harness's
		// own heap stays the same size however many rounds a run fits.
		r.mu.Lock()
		r.ops = r.ops[:0]
		r.mu.Unlock()
		r.roundSpan = r.tracer.begin(nil, "round")
		t0 := time.Now()
		w.round(r)
		rd := time.Since(t0)
		r.roundSpan.end()
		r.mu.Lock()
		ops := r.ops
		r.mu.Unlock()
		ms := make([]float64, len(ops))
		for i, o := range ops {
			ms[i] = float64(o.d) / float64(time.Millisecond)
			seg.opTotal[o.name] += o.d
		}
		for _, s := range steps {
			var xs []float64
			for _, o := range ops {
				if o.name == s.op {
					xs = append(xs, float64(o.d)/float64(s.unit))
				}
			}
			v := median(xs)
			if s.sum {
				v = 0
				for _, x := range xs {
					v += x
				}
			}
			seg.steps[s.metric] = append(seg.steps[s.metric], v)
		}
		seg.p50 = append(seg.p50, median(ms))
		seg.p99 = append(seg.p99, percentile(ms, 99))
		seg.rate = append(seg.rate, float64(len(ms))/rd.Seconds())
		seg.ops += len(ms)
		seg.rounds++
		if r.smoke {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	seg.allocMB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	r.mu.Lock()
	seg.counts = r.counts
	r.mu.Unlock()
	return seg
}

// metric is one reported metric value, with the per-round or per-set-up
// samples behind it. Records add its direction, its regression bound
// (end-to-end metrics only) and the samples' quartiles.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better,omitempty"`
	Bound   float64   `json:"bound,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Median  float64   `json:"median,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
}

// outcome is one workload run's result.
type outcome struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Setups    int               `json:"setups"`
	Rounds    int               `json:"rounds"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupsPerRun is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupsPerRun = 3

// runWorkload sets the workload up, measures it for the given time and
// returns its metrics: the end-to-end ones, or when traced the
// per-layer ones. Smoke runs check outputs once and measure nothing
// worth comparing.
func runWorkload(info workloadInfo, seed int64, seconds float64, work string, traced, smoke bool) outcome {
	r := &run{seed: seed, work: work, smoke: smoke, counts: map[string]float64{}}
	out := outcome{Workload: info.name, Metrics: map[string]metric{}}
	finish := func() outcome {
		for name, m := range out.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				r.check(name, fmt.Errorf("measured %g", m.Value))
				m.Value = 0
				out.Metrics[name] = m
			}
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		out.Attempted, out.Failed, out.Errors = r.attempted, r.failed, r.errs
		out.Correct = r.failed == 0 && r.attempted > 0
		return out
	}
	w := info.make()
	defer w.close()

	setups := setupsPerRun
	if traced || smoke {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		err := w.setup(r)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			r.check("setup", err)
			return finish()
		}
	}
	out.Setups = setups
	d := time.Duration(seconds * float64(time.Second))

	if !traced {
		seg := r.measure(w, d)
		out.Rounds = seg.rounds
		out.Metrics["setup_s"] = metric{Value: median(setupS), Unit: "s", Samples: setupS}
		out.Metrics["op_ms_p50"] = metric{Value: lowest(seg.p50), Unit: "ms", Samples: seg.p50}
		out.Metrics["op_ms_p99"] = metric{Value: lowest(seg.p99), Unit: "ms", Samples: seg.p99}
		out.Metrics["ops_per_s"] = metric{Value: highest(seg.rate), Unit: "1/s", Samples: seg.rate}
		out.Metrics["rss_peak_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
		return finish()
	}

	// Traced: half the time untraced, half under spans and the CPU
	// profile, then the probes. The halves' throughputs give the
	// tracing overhead.
	var plain segment
	if !smoke {
		plain = r.measure(w, d/2)
	}
	dir := filepath.Join(work, "trace", info.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.check("trace", err)
		return finish()
	}
	profPath := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		r.check("trace", err)
		return finish()
	}
	r.tracer = newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		r.check("trace", err)
		return finish()
	}
	seg := r.measure(w, d/2)
	pprof.StopCPUProfile()
	r.check("trace", f.Close())
	out.Rounds = plain.rounds + seg.rounds

	layer := map[string]float64{}
	for name, v := range seg.counts {
		layer[name] = v / float64(seg.rounds)
	}
	layer["gc.alloc_mb_per_op"] = seg.allocMB / float64(max(1, seg.ops))
	// The steps are timed in the untraced half, free of the profiler.
	untraced := plain
	if smoke {
		untraced = seg
	} else {
		layer["trace.overhead_pct"] = (median(plain.rate)/median(seg.rate) - 1) * 100
	}
	for _, s := range steps {
		layer[s.metric] = median(untraced.steps[s.metric])
	}
	if t := untraced.opTotal[opCell]; t > 0 {
		layer["step.sim_mcycles_per_s"] = untraced.counts["sim.cycles"] / t.Seconds() / 1e6
	}
	shares, err := profileShares(profPath)
	r.check("profile", err)
	for name, v := range shares {
		layer[name] = v
	}
	probe(r, layer)
	r.check("spans", r.tracer.write(dir))

	for _, m := range perLayer {
		out.Metrics[m.Name] = metric{Value: layer[m.Name], Unit: m.Unit}
	}
	return finish()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or
// the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
