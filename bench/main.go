package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr))
}

// refusedEnv are environment variables that change the program being
// measured: the invariant auditor, the tick-every-cycle scheduler and
// the Go runtime's collector and parallelism.
var refusedEnv = []string{"VLT_AUDIT", "VLT_NOSKIP", "GOGC", "GOMAXPROCS"}

// runCLI is the testable entry point: it parses args, runs the benchmark
// and returns the process exit code.
func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Float64("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced run instead of the end-to-end ones")
	out := fs.String("out", "", "write the run's record (samples, build and host) to this JSON file")
	work := fs.String("work", ".bench_build/work", "scratch directory for stores, profiles and spans")
	compare := fs.Bool("compare", false, "compare records: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "vltbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "vltbench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "vltbench: -seconds %g: want a positive duration\n", *seconds)
		return 2
	}
	for _, v := range refusedEnv {
		if _, set := os.LookupEnv(v); set {
			fmt.Fprintf(stderr, "vltbench: %s is set; it changes the program being measured, unset it\n", v)
			return 2
		}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "vltbench: %v\n", err)
		return 1
	}

	var outcomes []outcome
	if *name == "all" {
		var err error
		childArgs := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*trace), "-work", *work}
		if outcomes, err = runAll(childArgs, *work, stderr); err != nil {
			fmt.Fprintf(stderr, "vltbench: %v\n", err)
			return 1
		}
	} else {
		info, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "vltbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
		outcomes = []outcome{runWorkload(info, *seed, *seconds, *work, *trace == 1, false)}
	}

	rec := newRecord(*seed, *seconds, *trace, outcomes)
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fmt.Fprintf(stderr, "vltbench: %v\n", err)
			return 1
		}
	}
	code := 0
	for _, o := range outcomes {
		printOutcome(stdout, o)
		for _, e := range o.Errors {
			fmt.Fprintf(stderr, "vltbench: %s: %s\n", o.Workload, e)
		}
		if !o.Correct {
			code = 1
		}
	}
	if len(outcomes) > 1 {
		line, err := json.Marshal(rec.summary())
		if err != nil {
			fmt.Fprintf(stderr, "vltbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range suite {
		names = append(names, w.name)
	}
	return names
}

// printOutcome prints every metric by name with its unit, then the
// run's result object.
func printOutcome(w io.Writer, o outcome) {
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := o.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", o.Workload, m.Name, v.Value, v.Unit)
		}
	}
	line, err := json.Marshal(resultLine(o)) // runWorkload leaves only finite values
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// resultValue is one metric of the result line.
type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON result of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

func resultLine(o outcome) result {
	res := result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]resultValue{}}
	for name, m := range o.Metrics {
		res.Metrics[name] = resultValue{m.Value, m.Unit}
	}
	return res
}

// runAll runs every workload in its own process, one after another, so
// each starts from a fresh heap and its peak memory is its own. The
// children get args and write their records to the work directory.
func runAll(args []string, work string, stderr io.Writer) ([]outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var outcomes []outcome
	for _, w := range suite {
		part := filepath.Join(work, "part-"+w.name+".json")
		if err := os.Remove(part); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name, "-out", part)...)
		cmd.Stdout = io.Discard
		cmd.Stderr = stderr
		runErr := cmd.Run()
		rec, err := readRecord(part)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %v (run: %v)", w.name, err, runErr)
		}
		outcomes = append(outcomes, rec.Workloads...)
	}
	return outcomes, nil
}

// record is the machine-readable record of one invocation: every
// workload's metrics with their samples, and the build and host they
// were measured on.
type record struct {
	Schema     string    `json:"schema"`
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	Commit     string    `json:"commit"`
	Dirty      bool      `json:"dirty"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Trace      int       `json:"trace"`
	Workloads  []outcome `json:"workloads"`
}

// recordSchema names the record format; -compare refuses others.
const recordSchema = "vltbench/1"

func newRecord(seed int64, seconds float64, trace int, outcomes []outcome) record {
	rec := record{
		Schema: recordSchema, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Commit: "unknown", Seed: seed, Seconds: seconds, Trace: trace,
		Workloads: outcomes,
	}
	defs := map[string]metricDef{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[m.Name] = m
	}
	bounds, _ := declaredBounds("BENCHMARK.json") // absent outside a checkout: no bounds
	for _, o := range rec.Workloads {
		for name, m := range o.Metrics {
			m.Better, m.Bound = defs[name].Better, bounds[name]
			if len(m.Samples) > 0 {
				m.Q1, m.Median, m.Q3 = quartiles(m.Samples)
			}
			o.Metrics[name] = m
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rec.Commit = s.Value
			case "vcs.modified":
				rec.Dirty = s.Value == "true"
			}
		}
	}
	return rec
}

// summary folds the workloads into one result line: correct only when
// every workload is, with each metric named workload/metric.
func (rec record) summary() result {
	res := result{Correct: true, Metrics: map[string]resultValue{}}
	for _, o := range rec.Workloads {
		res.Correct = res.Correct && o.Correct
		res.Attempted += o.Attempted
		res.Failed += o.Failed
		for name, m := range o.Metrics {
			res.Metrics[o.Workload+"/"+name] = resultValue{m.Value, m.Unit}
		}
	}
	return res
}

func (rec record) write(path string) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return rec, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return rec, nil
}
