package vcl

import (
	"testing"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
)

func TestChainingDisabledWaitsForCompletion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableChaining = true
	v := New(cfg, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), 8)
	u1ID, u1 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	u2ID, u2 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFMul, Rd: isa.V(4), Ra: isa.V(1), Rb: isa.V(5)}, 64, nil)
	v.Enqueue(u1ID)
	v.Enqueue(u2ID)
	runCycles(v, 0, 40)
	// u1 completes at 11 (occupancy 8, latency 4); without chaining u2
	// waits for completion instead of the chain point (cycle 4).
	if u2.IssueCycle != u1.DoneCycle {
		t.Errorf("no-chaining: u2 issued at %d, want producer completion %d",
			u2.IssueCycle, u1.DoneCycle)
	}
	if u2.IssueCycle <= u1.ChainCycle {
		t.Errorf("no-chaining: u2 issued at %d, at or before the chain point %d",
			u2.IssueCycle, u1.ChainCycle)
	}
}

// TestZeroFieldConfigGetsDefaults pins that New runs with the config it
// is given, field for field: a changed field is kept and nothing else is
// filled in. A zero size is rejected before New, by core.Config.Validate
// (core's TestZeroCountIsAnError).
func TestZeroFieldConfigGetsDefaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IssueWidth = 1
	v := New(cfg, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), 8)
	if v.cfg != cfg {
		t.Errorf("New rewrote its config: got %+v, want %+v", v.cfg, cfg)
	}
}

func TestReductionDoesNotConsumeRename(t *testing.T) {
	v := newVCL(8)
	uID, u := vecUop(v, 0, isa.Instruction{Op: isa.OpVRedSum, Rd: isa.R(3), Ra: isa.V(1)}, 8, nil)
	v.Enqueue(uID)
	v.Tick(0)
	if got := v.parts[0].renames; got != 0 {
		t.Errorf("scalar-destination reduction took %d renames", got)
	}
	if !u.Issued {
		t.Error("reduction did not issue")
	}
}

func TestVectorStoreCommitsAtLastIssue(t *testing.T) {
	v := newVCL(8)
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * 8
	}
	stID, st := vecUop(v, 0, isa.Instruction{Op: isa.OpVSt, Rd: isa.V(1), Ra: isa.R(2)}, 64, addrs)
	v.Enqueue(stID)
	runCycles(v, 0, 40)
	if !st.Issued {
		t.Fatal("store did not issue")
	}
	// Cold misses take 100 cycles to memory, but the store's DoneCycle is
	// its acceptance time (store queue), well before that.
	if st.DoneCycle > 20 {
		t.Errorf("store DoneCycle = %d, should be acceptance time, not completion", st.DoneCycle)
	}
}

func TestThreadInFlightTracksPartition(t *testing.T) {
	v := newVCL(8)
	if err := v.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	uID, u := vecUop(v, 1, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 32, nil)
	u.ScalarProducers.Add(never(v)) // block it
	v.Enqueue(uID)
	v.Tick(0)
	if got := v.ThreadInFlight(1); got != 1 {
		t.Errorf("ThreadInFlight(1) = %d, want 1", got)
	}
	if got := v.ThreadInFlight(0); got != 0 {
		t.Errorf("ThreadInFlight(0) = %d, want 0", got)
	}
	if got := v.ThreadInFlight(9); got != 0 {
		t.Errorf("ThreadInFlight(9) = %d, want 0 (no partition)", got)
	}
}

func TestEarlyCommitSetAtIssue(t *testing.T) {
	v := newVCL(8)
	uID, u := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	v.Enqueue(uID)
	if u.CommitCycle != pipe.NeverDone {
		t.Fatalf("CommitCycle = %d before issue, want NeverDone", u.CommitCycle)
	}
	v.Tick(0)
	if u.CommitCycle != 1 {
		t.Errorf("CommitCycle = %d, want issue+1 = 1", u.CommitCycle)
	}
	if u.DoneCycle <= u.CommitCycle {
		t.Errorf("completion (%d) should follow early commit (%d)", u.DoneCycle, u.CommitCycle)
	}
}

func TestIssueRoundRobinIsFairAcrossPartitions(t *testing.T) {
	v := newVCL(8)
	if err := v.Partition([]int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Each partition gets a steady stream of short ops; all four threads
	// must make progress at comparable rates despite 2 issue slots.
	counts := map[int]int{}
	var uops []pipe.UopID
	pending := map[int][]pipe.UopID{}
	for tid := 0; tid < 4; tid++ {
		for k := 0; k < 10; k++ {
			uID, _ := vecUop(v, tid, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 16, nil)
			uops = append(uops, uID)
			pending[tid] = append(pending[tid], uID)
		}
	}
	for c := uint64(0); c < 400; c++ {
		// Feed with back-pressure, as the scalar units would.
		for tid := 0; tid < 4; tid++ {
			for len(pending[tid]) > 0 && v.Enqueue(pending[tid][0]) {
				pending[tid] = pending[tid][1:]
			}
		}
		v.Tick(c)
	}
	for _, id := range uops {
		if u := v.arena.At(id); u.Issued {
			counts[u.Thread]++
		}
	}
	for tid := 0; tid < 4; tid++ {
		if counts[tid] != 10 {
			t.Errorf("thread %d issued %d of 10", tid, counts[tid])
		}
	}
}

func TestUtilizationAcrossPartitionsConserved(t *testing.T) {
	v := newVCL(8)
	if err := v.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	offer(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 20)
	offer(v, 1, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 11)
	const cycles = 50
	runCycles(v, 0, cycles)
	want := uint64(cycles * NumVFUs * 8)
	if got := v.Util.Total(); got != want {
		t.Errorf("utilization total = %d, want %d", got, want)
	}
	if v.Util.Busy != 31 {
		t.Errorf("busy = %d, want 31 element ops", v.Util.Busy)
	}
	// VL 20 on 4 lanes: occupancy 5 cycles -> no partial idle; VL 11 on 4
	// lanes: occupancy 3, final cycle has 3 elems -> 1 partial-idle slot.
	if v.Util.PartIdle != 1 {
		t.Errorf("partIdle = %d, want 1", v.Util.PartIdle)
	}
}

func TestRepartitionResetsRenameState(t *testing.T) {
	v := newVCL(8)
	uID, _ := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	v.Enqueue(uID)
	runCycles(v, 0, 40)
	if v.DrainCycle() > 40 {
		t.Fatal("not drained")
	}
	if err := v.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range v.parts {
		if p.renames != 0 {
			t.Errorf("partition %d renames = %d after repartition", p.id, p.renames)
		}
		for _, w := range p.lastWriter {
			if w != 0 {
				t.Error("lastWriter state leaked across repartition")
				break
			}
		}
	}
}
