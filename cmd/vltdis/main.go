package main

import (
	"fmt"
	"io"
	"os"

	"vlt/internal/asm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, disassembles, writes
// to stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "vltdis: usage: vltdis prog.vltp")
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "vltdis:", err)
		return 1
	}
	prog, err := asm.LoadImage(data)
	if err != nil {
		fmt.Fprintln(stderr, "vltdis:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# program %q: %d instructions\n", prog.Name, len(prog.Code))
	fmt.Fprint(stdout, prog.Disassemble())
	return 0
}
