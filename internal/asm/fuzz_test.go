package asm_test

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/workloads"
)

// vetOnlySeeds assemble cleanly but fail static verification — the
// assembler checks syntax and symbol resolution, vet proves semantic
// properties on top. Each seeds the fuzz corpus and anchors
// TestVetStrictlyStronger.
var vetOnlySeeds = []string{
	"add r1, r2, r3\nhalt\n",                     // use-before-def
	"viota v1\nhalt\n",                           // vector op, VL never set
	"movi r1, 0\nsetvl r2, r1\nviota v1\nhalt\n", // VL provably zero
	".alloc buf 8\nmovi r1, 64\nsetvl r2, r1\nmovi r3, &buf\nvld v1, (r3)\nhalt\n",                           // VL=64 over 8 words
	".data t 1 2 3 4 5 6 7 8\nmovi r1, 8\nsetvl r2, r1\nmovi r3, &t\nmovi r4, 16\nvlds v1, (r3), r4\nhalt\n", // stride escapes segment
	"movi r1, 1\nj skip\nadd r2, r1, r1\nskip: halt\n",                                                       // unreachable block
}

// FuzzAssemble proves the text assembler never panics: any input either
// parses into a program or returns an error — that whatever parses
// reparses from its Disassemble output to identical code, and that the
// vet analyses are panic-free on it. The corpus seeds are the nine
// workload kernels' own disassembly (real programs exercising every
// directive and instruction form the workloads use) plus programs that
// assemble but fail vet.
func FuzzAssemble(f *testing.F) {
	for _, w := range workloads.All() {
		prog := w.Build(workloads.Params{Threads: 2, Scale: 1})
		f.Add(prog.Disassemble())
	}
	f.Add(".data tbl 1 2 3\n.alloc out 1\nmovi r1, 8\nhalt\n")
	f.Add(".data\n")
	f.Add("loop: j loop")
	for _, src := range vetOnlySeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := asm.ParseText("fuzz.vasm", src)
		if err != nil {
			return
		}
		// A program that parses must also survive the binary round trip,
		// reparse from its own disassembly to the same code, and pass
		// through the static verifier (findings are fine, panics are not).
		if _, err := asm.LoadImage(prog.SaveImage()); err != nil {
			t.Fatalf("SaveImage output rejected by LoadImage: %v", err)
		}
		text := prog.Disassemble()
		back, err := asm.ParseText("fuzz.vasm", text)
		if err != nil {
			t.Fatalf("disassembly does not reparse: %v\n%s", err, text)
		}
		if d := codeDiff(prog.Code, back.Code); d != "" {
			t.Fatalf("disassembly does not reparse to the same code: %s", d)
		}
		prog.Vet()
	})
}

// TestVetStrictlyStronger pins the intended gap between the assembler
// and the verifier: every vetOnlySeeds program assembles without error
// yet carries at least one finding.
func TestVetStrictlyStronger(t *testing.T) {
	for _, src := range vetOnlySeeds {
		prog, err := asm.ParseText("seed.vasm", src)
		if err != nil {
			t.Errorf("seed does not assemble: %v\n%s", err, src)
			continue
		}
		if findings := prog.Vet(); len(findings) == 0 {
			t.Errorf("seed assembles and vets clean — not a vet-only seed:\n%s", src)
		}
	}
}
