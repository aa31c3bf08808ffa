package search

import (
	"reflect"
	"testing"

	"vlt/internal/core"
	"vlt/internal/workloads"
)

// buildMpenc returns a builder for the lane-reclamation benchmark on
// V4-CMT — the cell with real VLTCFG decisions to search over.
func buildMpenc(t *testing.T) func() (*core.Machine, error) {
	t.Helper()
	w, err := workloads.ByName("mpenc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.V4CMT()
	prog := w.Build(workloads.Params{Threads: cfg.NumThreads})
	return func() (*core.Machine, error) { return core.NewMachine(cfg, prog) }
}

func TestOptimizeExhaustive(t *testing.T) {
	out, err := Optimize(buildMpenc(t), Options{Budget: 32})
	if err != nil {
		t.Fatal(err)
	}
	if out.Simulated != len(out.Runs) {
		t.Errorf("Simulated %d != len(Runs) %d", out.Simulated, len(out.Runs))
	}
	if len(out.Runs) < 3 {
		t.Fatalf("exhaustive search explored only %d runs", len(out.Runs))
	}
	root := out.Runs[0]
	if len(root.Plan) != 0 {
		t.Errorf("first run must be the all-defaults root, got plan %v", root.Plan)
	}
	if root.Failed {
		t.Fatalf("root run failed: %s", root.Err)
	}
	// The root makes the program's own choices, so the best run can
	// never be worse than the unsearched machine.
	if out.Best.Cycles > root.Cycles {
		t.Errorf("best %d cycles worse than the default run's %d", out.Best.Cycles, root.Cycles)
	}
	for i, r := range out.Runs {
		if r.Failed {
			t.Errorf("run %d (plan %v) failed: %s", i, r.Plan, r.Err)
		}
		for j, d := range r.Decisions {
			if d.Index != j {
				t.Errorf("run %d decision %d has index %d", i, j, d.Index)
			}
			if j < len(r.Plan) && r.Plan[j] > 0 && d.Chosen != r.Plan[j] {
				t.Errorf("run %d decision %d chose %d, plan says %d", i, j, d.Chosen, r.Plan[j])
			}
		}
	}
}

// TestOptimizeCoversWholeTree pins the one expansion rule: on mpenc,
// whose two repartition decisions each take one of three partition
// counts, the search simulates the complete tree — every pair of
// applied counts exactly once — and discards nothing.
func TestOptimizeCoversWholeTree(t *testing.T) {
	build := buildMpenc(t)
	m, err := build()
	if err != nil {
		t.Fatal(err)
	}
	choices := m.PartitionChoices()
	m.Release()
	out, err := Optimize(build, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Discarded != 0 {
		t.Errorf("discarded %d runs of a tree the default budget covers", out.Discarded)
	}
	want := map[[2]int]bool{}
	for _, a := range choices {
		for _, b := range choices {
			want[[2]int{a, b}] = true
		}
	}
	got := map[[2]int]bool{}
	plans := map[string]bool{}
	for _, r := range out.Runs {
		if len(r.Decisions) != 2 {
			t.Fatalf("plan %v passed %d decisions, want 2", r.Plan, len(r.Decisions))
		}
		pair := [2]int{r.Decisions[0].Chosen, r.Decisions[1].Chosen}
		if got[pair] {
			t.Errorf("plan %v repeats applied counts %v", r.Plan, pair)
		}
		got[pair] = true
		if k := planKey(r.Plan); plans[k] {
			t.Errorf("plan %v simulated twice", r.Plan)
		} else {
			plans[k] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("applied count pairs %v, want every pair of %v (%d)", got, choices, len(want))
	}
}

// TestOptimizeDeterministic pins the driver's core contract: identical
// options produce deeply equal outcomes, and the worker count changes
// nothing. The budget truncates the last wave mid-way, so the order in
// which a wave is cut is checked too.
func TestOptimizeDeterministic(t *testing.T) {
	build := buildMpenc(t)
	var outs []Outcome
	for _, tc := range []struct {
		name    string
		workers int
	}{{"exhaustive-serial", 1}, {"exhaustive-parallel", 4}} {
		t.Run(tc.name, func(t *testing.T) {
			for range 2 {
				out, err := Optimize(build, Options{Budget: 7, Workers: tc.workers})
				if err != nil {
					t.Fatal(err)
				}
				if out.Simulated != 7 || out.Discarded == 0 {
					t.Fatalf("budget 7 simulated %d and discarded %d; want a binding budget", out.Simulated, out.Discarded)
				}
				outs = append(outs, out)
			}
		})
	}
	if t.Failed() {
		return
	}
	for i, out := range outs[1:] {
		if !reflect.DeepEqual(outs[0], out) {
			t.Errorf("outcome %d differs from the first:\n%+v\nvs\n%+v", i+1, out, outs[0])
		}
	}
}

func TestOptimizeBudget(t *testing.T) {
	full, err := Optimize(buildMpenc(t), Options{Budget: 64})
	if err != nil {
		t.Fatal(err)
	}
	if full.Discarded != 0 {
		t.Fatalf("budget 64 should cover mpenc's whole tree, discarded %d", full.Discarded)
	}
	small, err := Optimize(buildMpenc(t), Options{Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.Simulated > 4 {
		t.Errorf("budget 4 simulated %d runs", small.Simulated)
	}
	if small.Discarded == 0 {
		t.Errorf("truncated search reported no discarded forks")
	}
	// The truncated search's runs are a prefix of the full search's.
	for i, r := range small.Runs {
		if !reflect.DeepEqual(r, full.Runs[i]) {
			t.Errorf("run %d differs between budgets: %+v vs %+v", i, r, full.Runs[i])
		}
	}
	// A budget spent exactly at a wave's end still reports the forks
	// it leaves unrun: budget 1 runs the root and drops its four forks
	// (two alternatives at each of mpenc's two decisions).
	root, err := Optimize(buildMpenc(t), Options{Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if root.Simulated != 1 || root.Discarded != 4 {
		t.Errorf("budget 1 simulated %d and discarded %d, want 1 and 4", root.Simulated, root.Discarded)
	}
}

func TestOptimizeDepthZeroBranchesNothingPastDepth(t *testing.T) {
	out, err := Optimize(buildMpenc(t), Options{Budget: 64, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Runs {
		if len(r.Plan) > 1 {
			t.Errorf("depth 1 produced plan %v", r.Plan)
		}
	}
}
