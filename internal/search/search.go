package search

import "fmt"

// Decision records one lane-repartition decision as a run passed it.
type Decision struct {
	// Index is the decision's sequence number within the run (0-based).
	Index int `json:"index"`
	// Cycle is the cycle the repartition was applied at.
	Cycle uint64 `json:"cycle"`
	// Thread is the software thread whose VLTCFG raised the decision.
	Thread int `json:"thread"`
	// Requested is the partition count the program asked for.
	Requested int `json:"requested"`
	// Chosen is the partition count actually applied.
	Chosen int `json:"chosen"`
}

// Run is one completed simulation of a decision plan.
type Run struct {
	// Plan is the run's decision overrides: Plan[i] is the partition
	// count forced at decision i, with 0 meaning "follow the program's
	// request". Decisions past len(Plan) follow the program.
	Plan []int `json:"plan"`
	// Decisions lists every repartition decision the run passed, in
	// order, with the choice that was applied.
	Decisions []Decision `json:"decisions"`
	// Cycles is the run's total cycle count (0 when Failed).
	Cycles uint64 `json:"cycles"`
	// Failed reports that the simulation aborted; Err carries the cause.
	Failed bool   `json:"failed,omitempty"`
	Err    string `json:"err,omitempty"`
}

// Outcome is the result of one Optimize call.
type Outcome struct {
	// Best is the completed run with the fewest cycles (ties broken by
	// plan order). When every run failed it is the first run.
	Best Run `json:"best"`
	// Runs lists every simulated run in deterministic wave order; the
	// first entry is always the all-defaults run.
	Runs []Run `json:"runs"`
	// Simulated counts the runs simulated (== len(Runs)); Discarded
	// counts speculative forks dropped by the budget before running.
	Simulated int `json:"simulated"`
	Discarded int `json:"discarded"`
}

// better reports whether a beats b: completed runs beat failed ones,
// then fewer cycles win, then the lexicographically smaller plan (the
// tiebreak keeps the ordering total and deterministic).
func better(a, b Run) bool {
	if a.Failed != b.Failed {
		return !a.Failed
	}
	if a.Cycles != b.Cycles {
		return a.Cycles < b.Cycles
	}
	return planLess(a.Plan, b.Plan)
}

func planLess(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func planKey(p []int) string { return fmt.Sprint(p) }
