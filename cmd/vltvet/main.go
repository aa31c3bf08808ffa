package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vlt/internal/asm"
	"vlt/internal/report"
	"vlt/internal/vet"
	"vlt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// vetReport is the JSON shape for one vetted program. Counts uses the
// internal/stats naming scheme ("vet.findings.<kind>").
type vetReport struct {
	Program  string             `json:"program"`
	Findings []vet.Finding      `json:"findings"`
	Counts   map[string]float64 `json:"counts"`
}

// run is the testable entry point: it parses args, vets, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadsFlag := fs.String("workloads", "", `vet built-in kernels: "all" or comma-separated names`)
	threads := fs.Int("threads", 1, "software thread count for -workloads builds")
	jsonOut := fs.Bool("json", false, "emit findings and per-kind counts as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vltvet [flags] [prog.vasm | prog.vltp ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workloadsFlag == "" && fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	var progs []*asm.Program
	if *workloadsFlag != "" {
		ws, err := selectWorkloads(*workloadsFlag)
		if err != nil {
			fmt.Fprintln(stderr, "vltvet:", err)
			return 2
		}
		for _, w := range ws {
			progs = append(progs, w.Build(workloads.Params{Threads: *threads}))
		}
	}
	for _, path := range fs.Args() {
		prog, err := asm.Load(path)
		if err != nil {
			fmt.Fprint(stderr, report.Diagnose("vltvet", err))
			return 1
		}
		progs = append(progs, prog)
	}

	reports := make([]vetReport, len(progs))
	total := 0
	for i, prog := range progs {
		findings := prog.Vet()
		total += len(findings)
		reports[i] = vetReport{
			Program:  prog.Name,
			Findings: findings,
			Counts:   vet.Count(findings),
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(stderr, "vltvet:", err)
			return 2
		}
	} else {
		for _, r := range reports {
			if len(r.Findings) == 0 {
				fmt.Fprintf(stdout, "%s: clean\n", r.Program)
				continue
			}
			fmt.Fprint(stderr, report.Diagnose("vltvet",
				&vet.Error{Program: r.Program, Findings: r.Findings}))
		}
	}
	if total > 0 {
		fmt.Fprintf(stderr, "vltvet: %d finding(s) in %d program(s)\n", total, len(progs))
		return 1
	}
	return 0
}

// selectWorkloads resolves the -workloads argument.
func selectWorkloads(arg string) ([]*workloads.Workload, error) {
	if arg == "all" {
		return workloads.All(), nil
	}
	var out []*workloads.Workload
	for _, name := range strings.Split(arg, ",") {
		w, err := workloads.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}
