package vlt

import (
	"testing"

	"vlt/internal/core"
)

// TestForkCarriesSampler pins that a fork inherits the time-series
// sampler: rows recorded before the cut appear identically in parent
// and fork, and both record the same rows after it.
func TestForkCarriesSampler(t *testing.T) {
	machine := buildCell(t, simCell{"mpenc", MachineV4CMT, Options{}}, func(c *core.Config) {
		c.SampleEvery = 64
	}).machine(t)
	if err := machine.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	clone := machine.Fork()
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Run(); err != nil {
		t.Fatal(err)
	}
	p, f := machine.Sampler(), clone.Sampler()
	if p == nil || f == nil {
		t.Fatal("sampler missing after run")
	}
	if p.Len() == 0 {
		t.Fatal("no samples recorded")
	}
	if p.Len() != f.Len() {
		t.Fatalf("sample count differs: %d parent vs %d fork", p.Len(), f.Len())
	}
	for i := 0; i < p.Len(); i++ {
		pc, pr := p.Row(i)
		fc, fr := f.Row(i)
		if pc != fc {
			t.Fatalf("sample %d cycle differs: %d parent vs %d fork", i, pc, fc)
		}
		for j := range pr {
			if pr[j] != fr[j] {
				t.Fatalf("sample %d col %d differs: %v parent vs %v fork", i, j, pr[j], fr[j])
			}
		}
	}
}
