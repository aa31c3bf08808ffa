package asm_test

import (
	"fmt"
	"reflect"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/workloads"
)

// codeDiff describes the first instruction where the reparsed code
// differs from the original, or returns "" when they are identical.
func codeDiff(orig, back []isa.Instruction) string {
	for i := range min(len(orig), len(back)) {
		if orig[i] != back[i] {
			return fmt.Sprintf("@%d %q reparses as %q (%+v)", i, orig[i].String(), back[i].String(), back[i])
		}
	}
	if len(orig) != len(back) {
		return fmt.Sprintf("%d instructions reparse as %d", len(orig), len(back))
	}
	return ""
}

// TestKernelsReparseFromDisassembly holds the toolchain contract on the
// nine workload kernels: each program's Disassemble output assembles
// back to the same code, data segments and symbol table.
func TestKernelsReparseFromDisassembly(t *testing.T) {
	for _, w := range workloads.All() {
		for _, threads := range []int{1, 2, 4} {
			prog := w.Build(workloads.Params{Threads: threads, Scale: 1})
			back, err := asm.ParseText(prog.Name, prog.Disassemble())
			if err != nil {
				t.Errorf("%s/%d threads: disassembly does not reparse: %v", w.Name, threads, err)
				continue
			}
			if d := codeDiff(prog.Code, back.Code); d != "" {
				t.Errorf("%s/%d threads: %s", w.Name, threads, d)
			}
			if !reflect.DeepEqual(back.Segments, prog.Segments) {
				t.Errorf("%s/%d threads: data segments differ", w.Name, threads)
			}
			if !reflect.DeepEqual(back.Symbols, prog.Symbols) {
				t.Errorf("%s/%d threads: symbol tables differ", w.Name, threads)
			}
		}
	}
}
