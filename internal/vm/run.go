package vm

import "fmt"

// RunFunctional executes the program to completion with a simple
// round-robin scheduler and ideal barriers, ignoring all timing. It is
// used for functional verification of workloads and for the operation
// statistics behind Table 4. maxSteps bounds the total dynamic instruction
// count (0 means a generous default).
func (v *VM) RunFunctional(maxSteps int64) error {
	if maxSteps <= 0 {
		maxSteps = 2_000_000_000
	}
	n := len(v.threads)
	atBarrier := make([]bool, n)
	var steps int64
	var d Dyn // one record, reused by every step

	allDone := func() bool {
		for _, t := range v.threads {
			if !t.Halted {
				return false
			}
		}
		return true
	}
	barrierReady := func() bool {
		any := false
		for i, t := range v.threads {
			if t.Halted {
				continue
			}
			if !atBarrier[i] {
				return false
			}
			any = true
		}
		return any
	}

	for !allDone() {
		progressed := false
		for tid, t := range v.threads {
			if t.Halted || atBarrier[tid] {
				continue
			}
			// Run this thread until it halts or reaches a barrier, in
			// chunks so no thread starves the step budget.
			for i := 0; i < 4096; i++ {
				if err := v.StepReusing(tid, &d); err != nil {
					return err
				}
				steps++
				if steps > maxSteps {
					return fmt.Errorf("vm: exceeded %d functional steps (livelock?)", maxSteps)
				}
				progressed = true
				if d.IsHalt {
					break
				}
				if d.IsBarrier {
					atBarrier[tid] = true
					break
				}
			}
		}
		if barrierReady() {
			for i := range atBarrier {
				atBarrier[i] = false
			}
			progressed = true
		}
		if !progressed && !allDone() {
			return fmt.Errorf("vm: deadlock: no thread can make progress")
		}
	}
	return nil
}
