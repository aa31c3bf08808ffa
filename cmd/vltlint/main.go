package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"vlt/internal/lint"
	"vlt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// lintReport is the JSON shape of one vltlint run. Counts uses the
// internal/stats naming scheme ("lint.findings.<rule>"), mirroring
// vltvet's report.
type lintReport struct {
	Root     string             `json:"root"`
	Findings []lint.Finding     `json:"findings"`
	Counts   map[string]float64 `json:"counts"`
}

// run is the testable entry point: it parses args, lints, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	docs := fs.Bool("docs", false, "also enforce the documentation contract (doc.go per internal and cmd package)")
	jsonOut := fs.Bool("json", false, "emit findings and per-rule counts as JSON")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vltlint [-root dir] [-docs] [-json] [patterns...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = lint.FindModuleRoot(".")
		if err != nil {
			fmt.Fprint(stderr, report.Diagnose("vltlint", err))
			return 2
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	findings, err := lint.Run(dir, patterns)
	if err != nil {
		fmt.Fprint(stderr, report.Diagnose("vltlint", err))
		return 2
	}
	if *docs {
		docFindings, err := lint.CheckDocs(dir)
		if err != nil {
			fmt.Fprint(stderr, report.Diagnose("vltlint", err))
			return 2
		}
		findings = append(findings, docFindings...)
	}

	if *jsonOut {
		counts := map[string]float64{}
		for _, f := range findings {
			counts["lint.findings."+f.Rule]++
		}
		r := lintReport{Root: dir, Findings: findings, Counts: counts}
		if r.Findings == nil {
			r.Findings = []lint.Finding{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(stderr, "vltlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vltlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
