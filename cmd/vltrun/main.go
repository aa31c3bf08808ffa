package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, simulates, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "base", "machine: "+strings.Join(core.MachineNames(), ", "))
	threads := fs.Int("threads", 1, "software thread count")
	lanes := fs.Int("lanes", 8, "vector lane count (machines with a vector unit)")
	trace := fs.Bool("trace", false, "print a retirement trace to stderr")
	pipeview := fs.Bool("pipeview", false, "print a per-instruction pipeline timeline to stderr")
	chrome := fs.String("chrometrace", "", "write a chrome://tracing JSON trace to this file")
	dump := fs.String("dump", "", "comma-separated data symbols to dump after the run")
	regs := fs.Bool("regs", false, "dump thread 0's integer registers")
	stats := fs.Bool("stats", false, "print every registry metric after the run")
	jsonOut := fs.Bool("json", false, "emit the result as JSON (cycles plus the full metric map)")
	sample := fs.Uint64("sample", 0, "record the metric time series every N cycles and print it as CSV")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "vltrun: usage: vltrun [flags] prog.vasm")
		return 2
	}
	prog, err := asm.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "vltrun:", err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "vltrun: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "vltrun: -cpuprofile:", err)
			return 1
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
				fmt.Fprintln(stderr, "vltrun: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "vltrun: -memprofile:", err)
			}
		}()
	}

	cfg, err := core.ByName(*machine, *lanes, *threads)
	if err != nil {
		fmt.Fprintln(stderr, "vltrun:", err)
		return 1
	}
	m, err := core.NewMachine(cfg, prog)
	if err != nil {
		fmt.Fprintln(stderr, "vltrun:", err)
		return 1
	}
	var chromeFile *os.File
	var tracer *chromeTracer
	if *chrome != "" {
		chromeFile, err = os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(stderr, "vltrun:", err)
			return 1
		}
		tracer = newChromeTracer(chromeFile)
	}
	if *trace || *pipeview || tracer != nil {
		m.SetRetireHook(retireHook(stderr, *trace, *pipeview, tracer))
	}
	var series string
	if *sample > 0 {
		series, err = sampleSeries(m, *sample)
	}
	var res core.Result
	if err == nil {
		res, err = m.Run()
	}
	if tracer != nil {
		if terr := errors.Join(tracer.Close(m.Registry()), chromeFile.Close()); terr != nil {
			fmt.Fprintln(stderr, "vltrun: trace:", terr)
			if err == nil {
				return 1
			}
		}
	}
	if err != nil {
		return abort(stderr, err)
	}

	snap := res.Metrics()
	if *jsonOut {
		out := struct {
			Machine string             `json:"machine"`
			Threads int                `json:"threads"`
			Cycles  uint64             `json:"cycles"`
			Retired uint64             `json:"retired"`
			Metrics map[string]float64 `json:"metrics"`
		}{cfg.Name, cfg.NumThreads, res.Cycles, res.Retired, snap.Map()}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "vltrun:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
		return 0
	}

	// The headline lines read from the registry snapshot — the same
	// source every other export uses.
	fmt.Fprintf(stdout, "machine: %s  threads: %d\n", cfg.Name, cfg.NumThreads)
	fmt.Fprintf(stdout, "cycles:  %d   instructions: %d   IPC: %.2f\n",
		res.Cycles, res.Retired, snap.Float("machine.ipc"))
	if v := snap.Uint("vcl.issued"); v > 0 {
		fmt.Fprintf(stdout, "vector:  %d instructions, %d element ops\n",
			v, snap.Uint("vcl.elem_ops"))
	}
	if *stats {
		pairs := make([][2]string, 0, len(snap))
		for _, v := range snap {
			pairs = append(pairs, [2]string{v.Name, v.FormatValue()})
		}
		fmt.Fprint(stdout, report.Metrics("\nmetrics", pairs))
	}
	if *sample > 0 {
		fmt.Fprintf(stdout, "\nsamples (every %d cycles):\n%s", *sample, series)
	}
	if *regs {
		th := m.VM().Thread(0)
		for i := 0; i < 32; i += 4 {
			fmt.Fprintf(stdout, "r%-2d=%-16d r%-2d=%-16d r%-2d=%-16d r%-2d=%d\n",
				i, int64(th.IntRegs[i]), i+1, int64(th.IntRegs[i+1]),
				i+2, int64(th.IntRegs[i+2]), i+3, int64(th.IntRegs[i+3]))
		}
	}
	if *dump != "" {
		for _, sym := range strings.Split(*dump, ",") {
			sym = strings.TrimSpace(sym)
			addr, ok := prog.Symbols[sym]
			if !ok {
				fmt.Fprintf(stdout, "%s: unknown symbol\n", sym)
				continue
			}
			// Dump up to the next symbol or 16 words.
			end := prog.DataEnd()
			for _, a := range prog.Symbols {
				if a > addr && a < end {
					end = a
				}
			}
			n := int((end - addr) / 8)
			if n > 16 {
				n = 16
			}
			fmt.Fprintf(stdout, "%s @%#x:", sym, addr)
			for i := 0; i < n; i++ {
				v, rerr := m.VM().Mem.ReadWord(addr + uint64(i)*8)
				if rerr != nil {
					fmt.Fprintf(stdout, " <%v>", rerr)
					break
				}
				fmt.Fprintf(stdout, " %d", v)
			}
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// abort prints a simulation failure as vltrun's clean diagnostic (a
// headline plus any machine-state dump) and returns the exit code 1.
func abort(stderr io.Writer, err error) int {
	fmt.Fprint(stderr, report.Diagnose("vltrun", err))
	return 1
}
