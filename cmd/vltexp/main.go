package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"

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
			fmt.Fprint(stderr, report.Diagnose("vltexp",
				&runner.PanicError{Key: "vltexp", Value: r, Stack: debug.Stack()}))
			code = 1
		}
	}()

	fs := flag.NewFlagSet("vltexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 1, "problem size multiplier")
	fig := fs.Int("fig", 0, "print one figure (1, 3, 4, 5 or 6)")
	tab := fs.Int("tab", 0, "print one table (1, 2, 3 or 4)")
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
	validFig := map[int]bool{1: true, 3: true, 4: true, 5: true, 6: true}
	if *fig != 0 && !validFig[*fig] {
		return usageErr("no figure %d (the paper's evaluation has figures 1, 3, 4, 5, 6)", *fig)
	}
	if *tab != 0 && (*tab < 1 || *tab > 4) {
		return usageErr("no table %d (tables 1-4)", *tab)
	}
	if *jobs < 0 {
		return usageErr("-jobs %d: want 0 (GOMAXPROCS) or a positive worker count", *jobs)
	}

	if *fig == 0 && *tab == 0 && !*ext && !*jsonOut && *metricsFor == "" {
		*all = true
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

	printFig := func(n int) error {
		var d fmt.Stringer
		var err error
		switch n {
		case 1:
			d, err = eng.Figure1(*scale)
		case 3:
			d, err = eng.Figure3(*scale)
		case 4:
			d, err = eng.Figure4(*scale)
		case 5:
			d, err = eng.Figure5(*scale)
		case 6:
			d, err = eng.Figure6(*scale)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, d)
		return nil
	}
	printTab := func(n int) error {
		switch n {
		case 1:
			fmt.Fprintln(stdout, vlt.Table1String())
		case 2:
			fmt.Fprintln(stdout, vlt.Table2String())
		case 3:
			fmt.Fprintln(stdout, vlt.Table3String())
		case 4:
			s, err := eng.Table4String(*scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, s)
		}
		return nil
	}
	printExt := func() error {
		d16, err := eng.Extension16Lanes(*scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, d16)
		dps, err := eng.ExtensionPhaseSwitching(*scale)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, dps)
		return nil
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

	if *all {
		// Warm the engine's memo with every driver running concurrently;
		// the ordered printing below then reads memoized cells.
		if _, err := eng.CollectAll(*scale); err != nil {
			return fail(err)
		}
		for _, n := range []int{1, 2, 3, 4} {
			if err := printTab(n); err != nil {
				return fail(err)
			}
		}
		for _, n := range []int{1, 3, 4, 5, 6} {
			if err := printFig(n); err != nil {
				return fail(err)
			}
		}
		if err := printExt(); err != nil {
			return fail(err)
		}
		return 0
	}
	if *fig != 0 {
		if err := printFig(*fig); err != nil {
			return fail(err)
		}
	}
	if *tab != 0 {
		if err := printTab(*tab); err != nil {
			return fail(err)
		}
	}
	if *ext {
		if err := printExt(); err != nil {
			return fail(err)
		}
	}
	return 0
}
