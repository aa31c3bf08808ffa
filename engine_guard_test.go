package vlt

import (
	"errors"
	"testing"

	"vlt/internal/runner"
)

// TestEngineIsolatesPanickingCell: a panic inside one cell's simulation
// fails only that cell, with a typed error naming it; sibling cells and
// the engine survive. The poisoned cell is a real workload: the engine
// keys a cell before its source sees it, and an unknown workload has no
// key.
func TestEngineIsolatesPanickingCell(t *testing.T) {
	orig := simulateCell
	defer func() { simulateCell = orig }()
	simulateCell = func(workload string, m Machine, opt Options) (Result, error) {
		if workload == "sage" {
			panic("injected cell panic")
		}
		return orig(workload, m, opt)
	}

	for _, jobs := range []int{1, 2} { // one slot and several
		eng := NewEngine(jobs)
		bad := eng.submit("sage", MachineBase, Options{})
		good := eng.submit("mxm", MachineBase, Options{})

		_, err := bad.wait()
		var pe *runner.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: want *runner.PanicError, got %T: %v", jobs, err, err)
		}
		if pe.Key != "sage/base" {
			t.Errorf("jobs=%d: panic names cell %q, want sage/base", jobs, pe.Key)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("jobs=%d: panic carries no stack", jobs)
		}
		c, err := good.wait()
		if err != nil || c.res.Cycles == 0 {
			t.Errorf("jobs=%d: sibling cell broken by panic: %v (cycles %d)", jobs, err, c.res.Cycles)
		}
	}
}
