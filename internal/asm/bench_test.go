package asm_test

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/workloads"
)

// kernelSources renders all nine workload kernels as assembly text —
// the same inputs vltasm assembles.
func kernelSources(b *testing.B) []string {
	b.Helper()
	var srcs []string
	for _, w := range workloads.All() {
		srcs = append(srcs, w.Build(workloads.Params{Threads: 4, Scale: 1}).Disassemble())
	}
	return srcs
}

// BenchmarkAssemble is the baseline for the vet-overhead guard: the full
// assembly pipeline (parse + encode) vltasm runs over each source file,
// measured across all nine workload kernels.
func BenchmarkAssemble(b *testing.B) {
	srcs := kernelSources(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			prog, err := asm.ParseText("bench", s)
			if err != nil {
				b.Fatal(err)
			}
			if len(prog.SaveImage()) == 0 {
				b.Fatal("empty image")
			}
		}
	}
}

// BenchmarkAssembleVet runs the same pipeline with static verification
// enabled, as vltasm does by default. scripts/check.sh compares the two
// benchmarks to bound the verifier's overhead relative to assembly time
// (measured ~8% on the nine kernels; the gate allows 25% for CI noise).
func BenchmarkAssembleVet(b *testing.B) {
	srcs := kernelSources(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			prog, err := asm.ParseText("bench", s)
			if err != nil {
				b.Fatal(err)
			}
			if findings := prog.Vet(); len(findings) != 0 {
				b.Fatalf("%s: unexpected findings: %v", prog.Name, findings)
			}
			if len(prog.SaveImage()) == 0 {
				b.Fatal("empty image")
			}
		}
	}
}
