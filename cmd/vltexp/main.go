package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"vlt"
	"vlt/internal/guard"
	"vlt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "problem size multiplier")
	fig := fs.Int("fig", 0, "print one figure ("+strings.Join(catalogued("figure"), ", ")+")")
	tab := fs.Int("tab", 0, "print one table ("+strings.Join(catalogued("table"), ", ")+")")
	ext := fs.Bool("ext", false, "print the extension studies (16 lanes, phase switching)")
	jsonOut := fs.Bool("json", false, "emit every result as JSON (for plotting scripts)")
	metricsFor := fs.String("metrics", "", "dump the named workload's full metric registry and exit")
	machine := fs.String("machine", "base", "machine configuration for -metrics")
	all := fs.Bool("all", false, "print every table and figure")
	jobs := fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = one at a time)")
	progress := fs.Bool("progress", false, "report completed/total simulation cells on stderr")
	stallLimit := fs.Uint64("stall-limit", 0, "abort a cell when no instruction retires for N cycles (0 = default)")
	auditFlag := fs.String("audit", "auto", "invariant auditor: auto, on, off")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "vltexp: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	audit, err := guard.ParseAuditMode(*auditFlag)
	if err != nil {
		return usageErr("%v", err)
	}
	if fs.NArg() > 0 {
		return usageErr("unexpected argument %q", fs.Arg(0))
	}
	// -fig N and -tab N select the catalogue's figureN and tableN, -ext
	// its extension studies; selector is the first of them given.
	var selected []vlt.Experiment
	var selector string
	for _, sel := range []struct {
		flag, kind string
		n          int
	}{{"-fig", "figure", *fig}, {"-tab", "table", *tab}} {
		if sel.n == 0 {
			continue
		}
		e, ok := vlt.LookupExperiment(fmt.Sprintf("%s%d", sel.kind, sel.n))
		if !ok {
			return usageErr("no %s %d (have %ss %s)", sel.kind, sel.n, sel.kind, strings.Join(catalogued(sel.kind), ", "))
		}
		selected = append(selected, e)
		selector = cmp.Or(selector, sel.flag)
	}
	if *ext {
		for _, e := range vlt.Experiments() {
			if strings.HasPrefix(e.Name, "ext") {
				selected = append(selected, e)
			}
		}
		selector = cmp.Or(selector, "-ext")
	}
	if *scale < 1 {
		return usageErr("-scale %d: want a positive problem size multiplier", *scale)
	}
	if *jobs < 0 {
		return usageErr("-jobs %d: want 0 (GOMAXPROCS) or a positive worker count", *jobs)
	}
	// -all, -json, -metrics and the selectors (which combine) are
	// exclusive modes, and -machine belongs to -metrics.
	var modes []string
	for _, m := range []struct {
		flag string
		on   bool
	}{{"-all", *all}, {"-json", *jsonOut}, {"-metrics", *metricsFor != ""}, {selector, selector != ""}} {
		if m.on {
			modes = append(modes, m.flag)
		}
	}
	if len(modes) > 1 {
		return usageErr("%s and %s are mutually exclusive", modes[0], modes[1])
	}
	machineSet := false
	fs.Visit(func(f *flag.Flag) { machineSet = machineSet || f.Name == "machine" })
	if machineSet && *metricsFor == "" {
		return usageErr("-machine applies only to -metrics, not %s", cmp.Or(append(modes, "-all")...))
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return usageErr("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return usageErr("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "vltexp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "vltexp: -memprofile: %v\n", err)
			}
		}()
	}

	eng := vlt.NewEngine(*jobs)
	eng.SetGuard(*stallLimit, audit)
	if *progress {
		var mu sync.Mutex
		eng.SetProgress(func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "\rvltexp: %d/%d cells simulated", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		})
	}

	fail := func(err error) int {
		fmt.Fprint(stderr, report.Diagnose("vltexp", err))
		return 1
	}
	if *metricsFor != "" {
		// Machine-readable registry dump: one "name value" line per
		// metric, sorted by name (the golden-metrics test's format).
		res, err := vlt.Run(*metricsFor, vlt.Machine(*machine), vlt.Options{
			Scale: *scale, StallLimit: *stallLimit, Audit: audit,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, res.Metrics.String())
		return 0
	}

	if *jsonOut {
		data, err := eng.MarshalAll(*scale)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	if len(selected) > 0 {
		for _, e := range selected {
			_, text, err := e.Run(eng, *scale)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, text)
		}
		return 0
	}
	// -all, the default: every entry at once, printed in catalogue order.
	outs, err := eng.CollectAll(*scale)
	if err != nil {
		return fail(err)
	}
	for _, o := range outs {
		fmt.Fprintln(stdout, o.Text)
	}
	return 0
}

// catalogued lists the N of every catalogue experiment named kind+N, in
// catalogue order.
func catalogued(kind string) []string {
	var ns []string
	for _, e := range vlt.Experiments() {
		if n, ok := strings.CutPrefix(e.Name, kind); ok {
			ns = append(ns, n)
		}
	}
	return ns
}
