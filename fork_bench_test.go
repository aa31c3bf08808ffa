package vlt

import (
	"testing"

	"vlt/internal/core"
)

// The fork benchmarks pin the point of Machine.Fork: copying a mid-run
// machine must cost O(live state), far less than re-simulating the
// prefix that produced it. scripts/check.sh compares the two ns/op
// figures and fails the build if forking stops paying for itself.

const benchForkCut = 5000 // cycles of prefix before the fork point

func buildBenchMachine(b *testing.B) *core.Machine {
	b.Helper()
	return buildCell(b, simCell{"mpenc", MachineV4CMT, Options{}}, nil).machine(b)
}

// BenchmarkFork measures one Fork of a machine paused mid-run.
func BenchmarkFork(b *testing.B) {
	m := buildBenchMachine(b)
	if err := m.RunUntil(benchForkCut); err != nil {
		b.Fatalf("prefix run: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Fork() == nil {
			b.Fatal("fork returned nil")
		}
	}
}

// BenchmarkReplayToForkPoint measures the alternative a search driver
// would face without Fork: rebuilding the machine and re-simulating the
// same prefix from cycle zero.
func BenchmarkReplayToForkPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := buildBenchMachine(b)
		b.StartTimer()
		if err := m.RunUntil(benchForkCut); err != nil {
			b.Fatalf("prefix run: %v", err)
		}
	}
}
