package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"

	"vlt"
	"vlt/internal/guard"
	"vlt/internal/report"
	"vlt/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates, writes to
// stdout/stderr and returns the process exit code. A panic anywhere
// below renders as a diagnostic instead of crashing the process.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprint(stderr, report.Diagnose("vltsim",
				&runner.PanicError{Key: "vltsim", Value: r, Stack: debug.Stack()}))
			code = 1
		}
	}()
	fs := flag.NewFlagSet("vltsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see -list)")
	machine := fs.String("machine", "base", "machine configuration")
	scale := fs.Int("scale", 1, "problem size multiplier")
	lanes := fs.Int("lanes", 0, "lane count override (base machine only)")
	threads := fs.Int("threads", 0, "software thread count override")
	list := fs.Bool("list", false, "list workloads and machines")
	noVerify := fs.Bool("no-verify", false, "skip result verification")
	verbose := fs.Bool("v", false, "print the full metric registry")
	stallLimit := fs.Uint64("stall-limit", 0, "abort when no instruction retires for N cycles (0 = default)")
	auditFlag := fs.String("audit", "auto", "invariant auditor: auto, on, off")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	audit, err := guard.ParseAuditMode(*auditFlag)
	if err != nil {
		fmt.Fprintln(stderr, "vltsim:", err)
		return 2
	}
	if *scale < 1 {
		fmt.Fprintf(stderr, "vltsim: -scale %d: want a positive problem size multiplier\n", *scale)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:", strings.Join(vlt.Workloads(), " "))
		var ms []string
		for _, m := range vlt.Machines() {
			ms = append(ms, string(m))
		}
		fmt.Fprintln(stdout, "machines: ", strings.Join(ms, " "))
		return 0
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "vltsim: -workload is required (try -list)")
		return 2
	}

	res, err := vlt.Run(*workload, vlt.Machine(*machine), vlt.Options{
		Scale: *scale, Lanes: *lanes, Threads: *threads, SkipVerify: *noVerify,
		StallLimit: *stallLimit, Audit: audit,
	})
	if err != nil {
		fmt.Fprint(stderr, report.Diagnose("vltsim", err))
		return 1
	}

	fmt.Fprintf(stdout, "workload:        %s on %s (%d thread(s), scale %d)\n",
		res.Workload, res.Machine, res.Threads, *scale)
	fmt.Fprintf(stdout, "cycles:          %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instructions:    %d retired (IPC %.2f)\n", res.Retired, res.IPC())
	fmt.Fprintf(stdout, "vector:          %d instructions, %d element ops\n", res.VecIssued, res.VecElemOps)
	if res.VecIssued > 0 {
		fmt.Fprintf(stdout, "datapaths:       busy %.1f%%  partly-idle %.1f%%  stalled %.1f%%  all-idle %.1f%%\n",
			res.Util.BusyPct, res.Util.PartIdlePct, res.Util.StalledPct, res.Util.AllIdlePct)
	}
	fmt.Fprintf(stdout, "characteristics: %%vect %.1f, avg VL %.1f, common VLs %v, opportunity %.1f%%\n",
		res.PercentVect, res.AvgVL, res.CommonVLs, res.OpportunityPct)
	if res.Verified {
		fmt.Fprintln(stdout, "verification:    PASS (results match host reference)")
	} else {
		fmt.Fprintln(stdout, "verification:    skipped")
	}
	if *verbose {
		// The registry-driven listing replaces the old hand-written
		// per-SU/per-lane printf block: every unit's counters appear
		// under its own su<N>./lane<N>. prefix.
		pairs := make([][2]string, 0, len(res.Metrics))
		for _, m := range res.Metrics {
			pairs = append(pairs, [2]string{m.Name, m.FormatValue()})
		}
		fmt.Fprint(stdout, report.Metrics("\nmetrics", pairs))
	}
	return 0
}
