package vlt

import (
	"fmt"

	"vlt/internal/core"
	"vlt/internal/search"
)

// This file is the facade over internal/search: speculative design-
// space exploration of a workload's lane-repartition decisions, built
// on core.Machine.Fork. See DESIGN.md §12.

// SearchOptions tunes SearchLanePartition.
type SearchOptions struct {
	// Scale multiplies the workload's calibrated default problem size.
	Scale int
	// Threads overrides the software thread count (0 = the machine's
	// natural count).
	Threads int
	// Budget caps the total number of simulated runs, including the
	// all-defaults baseline (0 = search.DefaultBudget).
	Budget int
	// Depth caps how many leading repartition decisions are branched on
	// (0 = search.DefaultDepth).
	Depth int
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
}

// SearchDecision records one lane-repartition decision as a run passed
// it: the partition count the program requested and the one applied.
type SearchDecision = search.Decision

// SearchRun is one completed simulation of a decision plan. Plan[i] is
// the partition count forced at decision i (0 = the program's own
// request); decisions past len(Plan) follow the program.
type SearchRun = search.Run

// SearchResult reports one SearchLanePartition exploration.
type SearchResult struct {
	Workload string  `json:"workload"`
	Machine  Machine `json:"machine"`
	Threads  int     `json:"threads"`

	// Best is the fewest-cycle run found; DefaultCycles is the
	// all-defaults baseline (the program's own repartitioning), so
	// Speedup = DefaultCycles / Best.Cycles and is always >= 1 for a
	// completed baseline.
	Best          SearchRun `json:"best"`
	DefaultCycles uint64    `json:"default_cycles"`
	Speedup       float64   `json:"speedup"`

	Runs      []SearchRun `json:"runs"`
	Simulated int         `json:"simulated"`
	Discarded int         `json:"discarded"`

	// Verified reports that the best plan was replayed from scratch,
	// reproduced its searched cycle count exactly, and passed the
	// workload's functional verification.
	Verified bool `json:"verified"`
}

// SearchLanePartition explores the lane-repartition decision space of
// one workload on one machine: every VLTCFG the program issues becomes
// a decision point where the search may substitute any valid partition
// count, forking the mid-run machine to explore alternatives without
// replaying the prefix. It returns every simulated run and the best
// plan found, with the best plan replayed from scratch and functionally
// verified. The search is deterministic for fixed options.
func SearchLanePartition(workload string, m Machine, opt SearchOptions) (SearchResult, error) {
	spec, err := resolveCell(workload, m, Options{Scale: opt.Scale, Threads: opt.Threads})
	if err != nil {
		return SearchResult{}, err
	}
	// One immutable program shared by every speculative machine; each
	// machine gets its own functional memory at construction.
	prog := spec.w.Build(spec.params)
	build := func() (*core.Machine, error) { return core.NewMachine(spec.cfg, prog) }

	out, err := search.Optimize(build, search.Options{
		Budget:  opt.Budget,
		Depth:   opt.Depth,
		Workers: opt.Workers,
	})
	if err != nil {
		return SearchResult{}, err
	}

	res := SearchResult{
		Workload:      workload,
		Machine:       m,
		Threads:       spec.threads,
		Best:          out.Best,
		DefaultCycles: out.Runs[0].Cycles,
		Runs:          out.Runs,
		Simulated:     out.Simulated,
		Discarded:     out.Discarded,
	}
	if res.Best.Cycles > 0 {
		res.Speedup = float64(res.DefaultCycles) / float64(res.Best.Cycles)
	}
	if out.Best.Failed {
		return res, nil
	}

	// Replay the winning plan from scratch: its cycle count must
	// reproduce exactly (catching any nondeterminism in the search
	// machinery) and the workload's functional output must verify (a
	// repartition override changes each thread's VL schedule, so the
	// program must be VL-robust — strip-mined — under it).
	machine, err := build()
	if err != nil {
		return res, err
	}
	plan := out.Best.Plan
	machine.SetForkAt(func(_ *core.Machine, pt core.ForkPoint) int {
		if pt.Index < len(plan) {
			return plan[pt.Index]
		}
		return 0
	})
	replay, err := machine.Run()
	machine.Release()
	if err != nil {
		return res, fmt.Errorf("vlt: best plan %v failed on replay: %w", plan, err)
	}
	if replay.Cycles != out.Best.Cycles {
		return res, fmt.Errorf("vlt: best plan %v replayed to %d cycles, searched %d",
			plan, replay.Cycles, out.Best.Cycles)
	}
	if err := spec.w.Verify(machine.VM(), prog, spec.params); err != nil {
		return res, fmt.Errorf("vlt: best plan %v fails verification: %w", plan, err)
	}
	res.Verified = true
	return res, nil
}
