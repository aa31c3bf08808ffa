package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vlt"
	"vlt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, searches, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(vlt.Workloads(), ", "))
	machine := fs.String("machine", "V4-CMT", "machine configuration name")
	budget := fs.Int("budget", 0, "max simulated runs including the baseline (0 = default)")
	depth := fs.Int("depth", 0, "max leading decisions branched on (0 = default)")
	scale := fs.Int("scale", 0, "workload problem-size multiplier (0 = calibrated default)")
	threads := fs.Int("threads", 0, "software thread count (0 = machine's natural count)")
	jobs := fs.Int("jobs", 0, "concurrent simulations (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", false, "emit the full result as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vltsearch -workload <name> [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "vltsearch: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *workload == "" {
		fs.Usage()
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"scale", *scale}, {"budget", *budget}, {"depth", *depth}, {"threads", *threads}, {"jobs", *jobs}} {
		if f.v < 0 {
			fmt.Fprintf(stderr, "vltsearch: -%s %d: want 0 (the default) or a positive count\n", f.name, f.v)
			return 2
		}
	}

	res, err := vlt.SearchLanePartition(*workload, vlt.Machine(*machine), vlt.SearchOptions{
		Scale:   *scale,
		Threads: *threads,
		Budget:  *budget,
		Depth:   *depth,
		Workers: *jobs,
	})
	if err != nil {
		fmt.Fprint(stderr, report.Diagnose("vltsearch", err))
		return 1
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "vltsearch:", err)
			return 2
		}
		return 0
	}

	fmt.Fprintf(stdout, "%s on %s: %d runs simulated (%d discarded), baseline %d cycles\n",
		res.Workload, res.Machine, res.Simulated, res.Discarded, res.DefaultCycles)
	for _, r := range res.Runs {
		status := fmt.Sprintf("%8d cycles", r.Cycles)
		if r.Failed {
			status = "failed: " + r.Err
		}
		fmt.Fprintf(stdout, "  plan %-14s %s\n", fmt.Sprint(r.Plan), status)
	}
	if res.Best.Failed {
		fmt.Fprintln(stdout, "no completed run found")
		return 1
	}
	fmt.Fprintf(stdout, "best plan %v: %d cycles, %.3fx vs baseline (verified=%t)\n",
		res.Best.Plan, res.Best.Cycles, res.Speedup, res.Verified)
	for _, d := range res.Best.Decisions {
		note := ""
		if d.Chosen != d.Requested {
			note = fmt.Sprintf(" (program asked for %d)", d.Requested)
		}
		fmt.Fprintf(stdout, "  decision %d @cycle %-8d thread %d -> %d partitions%s\n",
			d.Index, d.Cycle, d.Thread, d.Chosen, note)
	}
	return 0
}
