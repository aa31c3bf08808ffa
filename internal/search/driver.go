package search

import (
	"fmt"

	"vlt/internal/core"
	"vlt/internal/runner"
)

// Options tunes an Optimize call. The zero value is usable.
type Options struct {
	// Budget caps the total number of simulated runs, including the
	// all-defaults root (0 = DefaultBudget). Speculative forks beyond
	// the budget are discarded, never run.
	Budget int
	// Depth caps how many leading decisions are branched on; decisions
	// past it always follow the program (0 = DefaultDepth).
	Depth int
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
}

// Search driver defaults.
const (
	DefaultBudget = 64
	DefaultDepth  = 4
)

// job is one schedulable simulation: a machine snapshot (nil for the
// root, which builds fresh) plus the decision plan steering it and the
// decisions already taken on its inherited prefix.
type job struct {
	plan      []int
	machine   *core.Machine
	inherited []Decision
}

// jobResult carries one job's run and the children it forked.
type jobResult struct {
	run      Run
	children []job
}

// Optimize explores the repartition decision space of the machine that
// build constructs and returns every simulated run plus the best one.
// The search is deterministic: a fixed builder, budget and depth
// produce the identical Outcome for any worker count.
//
// The all-defaults root run is always simulated first and makes
// exactly the choices an unhooked machine would, so Outcome.Best is
// never worse than the program's own repartitioning.
func Optimize(build func() (*core.Machine, error), opts Options) (Outcome, error) {
	if opts.Budget <= 0 {
		opts.Budget = DefaultBudget
	}
	if opts.Depth <= 0 {
		opts.Depth = DefaultDepth
	}

	d := driver{build: build, opts: opts}
	slots := runner.NewSlots(opts.Workers)
	out := Outcome{}
	wave := []job{{}} // the all-defaults root

	for len(wave) > 0 {
		// Budget truncation happens before submission, in deterministic
		// wave order, so a discarded fork never consumes a slot.
		if remaining := opts.Budget - out.Simulated; len(wave) > remaining {
			out.Discarded += len(wave) - remaining
			wave = wave[:remaining]
		}
		tasks := make([]*runner.Task[jobResult], len(wave))
		for i, j := range wave {
			j := j
			tasks[i] = runner.Start(slots, planKey(j.plan), func() (jobResult, error) {
				return d.runJob(j)
			})
		}
		// Every run's children form the next wave, in wave order. The
		// plans are distinct without a dedupe. A child's plan is its
		// parent's plan, zero-padded up to the fork's decision, plus one
		// count the program did not request there. So every plan but
		// the root's ends in a nonzero count, and dropping a child's last
		// entry and then its trailing zeros gives back its parent's plan:
		// children of distinct parents differ, and siblings differ in
		// length or in their last count.
		var next []job
		for _, t := range tasks {
			r, err := t.Wait()
			if err != nil {
				return out, err
			}
			out.Runs = append(out.Runs, r.run)
			out.Simulated++
			next = append(next, r.children...)
		}
		wave = next
	}

	if len(out.Runs) == 0 {
		return out, fmt.Errorf("search: budget %d admitted no runs", opts.Budget)
	}
	out.Best = out.Runs[0]
	for _, r := range out.Runs[1:] {
		if better(r, out.Best) {
			out.Best = r
		}
	}
	return out, nil
}

type driver struct {
	build func() (*core.Machine, error)
	opts  Options
}

// runJob simulates one plan to completion, forking a child at every
// undecided decision shallower than Depth. It runs holding one slot;
// everything it touches — the machine, its forks, the accumulators —
// is job-local, which is exactly the isolation Machine.Fork guarantees.
func (d *driver) runJob(j job) (jobResult, error) {
	m := j.machine
	if m == nil {
		var err error
		if m, err = d.build(); err != nil {
			return jobResult{}, err
		}
	}
	res := jobResult{run: Run{Plan: j.plan}}
	decisions := append([]Decision(nil), j.inherited...)
	m.SetForkAt(func(mm *core.Machine, pt core.ForkPoint) int {
		chosen := 0
		switch {
		case pt.Index < len(j.plan):
			chosen = j.plan[pt.Index] // 0 entries mean "already decided: follow the program"
		case pt.Index < d.opts.Depth:
			// Undecided and shallow enough to branch: fork one child per
			// alternative choice, then take the program's own choice
			// ourselves — this run is the default-choice child.
			for _, c := range mm.PartitionChoices() {
				if c == pt.Requested {
					continue
				}
				plan := make([]int, pt.Index+1)
				copy(plan, j.plan)
				plan[pt.Index] = c
				// The fork resumes at this same decision and records it
				// itself (its plan now covers the index), so it inherits
				// only the decisions strictly before the fork point.
				res.children = append(res.children, job{
					plan:      plan,
					machine:   mm.Fork(),
					inherited: append([]Decision(nil), decisions...),
				})
			}
		}
		applied := chosen
		if applied == 0 {
			applied = pt.Requested
		}
		decisions = append(decisions, Decision{
			Index: pt.Index, Cycle: pt.Cycle, Thread: pt.Thread,
			Requested: pt.Requested, Chosen: applied,
		})
		return chosen
	})
	r, err := m.Run()
	m.Release() // the run is over; its forks own their own caches
	res.run.Decisions = decisions
	if err != nil {
		res.run.Failed = true
		res.run.Err = err.Error()
		return res, nil
	}
	res.run.Cycles = r.Cycles
	return res, nil
}
