package vlt

import (
	"reflect"
	"testing"

	"vlt/internal/core"
)

// TestSearchLanePartitionMpenc is the acceptance test for the search
// driver: on the lane-reclamation benchmark it must find a repartition
// policy at least as good as the better of the two fixed policies from
// the extension study — the program's own VLTCFG reclamation and the
// static partitioning — and the winning plan must verify functionally.
func TestSearchLanePartitionMpenc(t *testing.T) {
	reclaim, err := Run("mpenc", MachineV4CMT, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run("mpenc", MachineV4CMT, Options{NoLaneReclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SearchLanePartition("mpenc", MachineV4CMT, SearchOptions{Budget: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Error("best plan not verified")
	}
	if res.DefaultCycles != reclaim.Cycles {
		t.Errorf("search baseline %d cycles != unsearched run's %d — the hook is not neutral",
			res.DefaultCycles, reclaim.Cycles)
	}
	best := reclaim.Cycles
	if static.Cycles < best {
		best = static.Cycles
	}
	if res.Best.Cycles > best {
		t.Errorf("search found %d cycles; best fixed policy is %d (reclaim %d, static %d)",
			res.Best.Cycles, best, reclaim.Cycles, static.Cycles)
	}
	if res.Simulated < 3 {
		t.Errorf("only %d runs simulated on a workload with repartition decisions", res.Simulated)
	}
}

// TestSearchDeterministic pins end-to-end facade determinism: searches
// with the same options are deeply equal at 1 and 4 workers, under a
// budget that cuts the search short.
func TestSearchDeterministic(t *testing.T) {
	var first SearchResult
	for i, workers := range []int{1, 1, 4, 4} {
		res, err := SearchLanePartition("mpenc", MachineV4CMT, SearchOptions{Budget: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Discarded == 0 {
			t.Fatal("budget 7 discarded nothing; want a binding budget")
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(first, res) {
			t.Errorf("result %d (%d workers) differs:\n%+v\nvs\n%+v", i, workers, res, first)
		}
	}
}

// TestForkAtDefaultIsNeutral pins the hook-site contract: installing a
// SetForkAt hook that declines every override (returns 0, or echoes the
// request) must leave the run metric-identical to an unhooked machine.
func TestForkAtDefaultIsNeutral(t *testing.T) {
	baseline := buildCell(t, simCell{"mpenc", MachineV4CMT, Options{}}, nil).machine(t)
	ref, err := baseline.Run()
	if err != nil {
		t.Fatal(err)
	}
	hooks := map[string]func(*core.Machine, core.ForkPoint) int{
		"return-zero":    func(*core.Machine, core.ForkPoint) int { return 0 },
		"echo-request":   func(_ *core.Machine, pt core.ForkPoint) int { return pt.Requested },
		"invalid-choice": func(*core.Machine, core.ForkPoint) int { return 7 }, // not a valid count: ignored
	}
	for _, name := range []string{"return-zero", "echo-request", "invalid-choice"} {
		t.Run(name, func(t *testing.T) {
			m := buildCell(t, simCell{"mpenc", MachineV4CMT, Options{}}, nil).machine(t)
			fired := 0
			hook := hooks[name]
			m.SetForkAt(func(mm *core.Machine, pt core.ForkPoint) int {
				fired++
				return hook(mm, pt)
			})
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if fired == 0 {
				t.Error("hook never fired on a workload with VLTCFG instructions")
			}
			diffSnapshots(t, "hooked", ref.Metrics(), res.Metrics(), "")
		})
	}
}

// TestPartitionChoices pins the valid-choice enumeration the search
// branches over.
func TestPartitionChoices(t *testing.T) {
	m := buildCell(t, simCell{"mpenc", MachineV4CMT, Options{}}, nil).machine(t) // 8 lanes, 4 threads
	if got, want := m.PartitionChoices(), []int{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("PartitionChoices() = %v, want %v", got, want)
	}
	scalar := buildCell(t, simCell{"radix", MachineCMT, Options{}}, nil).machine(t) // no vector unit
	if got := scalar.PartitionChoices(); got != nil {
		t.Errorf("PartitionChoices() on a scalar machine = %v, want nil", got)
	}
}
