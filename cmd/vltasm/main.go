package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vlt/internal/asm"
	"vlt/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, assembles, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output image path (default: input with .vltp)")
	noVet := fs.Bool("no-vet", false, "skip static verification of the assembled program")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vltasm [-o out.vltp] [-no-vet] prog.vasm")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	in := fs.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fmt.Fprintln(stderr, "vltasm:", err)
		return 1
	}
	prog, err := asm.ParseText(in, string(src))
	if err != nil {
		fmt.Fprintln(stderr, "vltasm:", err)
		return 1
	}
	if !*noVet {
		if err := prog.VetErr(); err != nil {
			fmt.Fprint(stderr, report.Diagnose("vltasm", err))
			return 1
		}
	}
	path := *out
	if path == "" {
		path = strings.TrimSuffix(in, ".vasm") + ".vltp"
	}
	if err := os.WriteFile(path, prog.SaveImage(), 0o644); err != nil {
		fmt.Fprintln(stderr, "vltasm:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d instructions, %d data segments, %d symbols -> %s\n",
		prog.Name, len(prog.Code), len(prog.Segments), len(prog.Symbols), path)
	return 0
}
