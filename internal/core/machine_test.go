package core

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/vcl"
	"vlt/internal/vm"
)

// vectorSumProgram builds an SPMD program: threads split rows of a matrix,
// each vectorizes across columns (vl), accumulating row sums into out.
// With one thread it is the classic single-threaded vector kernel.
func vectorSumProgram(rows, cols int) *asm.Program {
	b := asm.NewBuilder("vsum")
	data := make([]uint64, rows*cols)
	for i := range data {
		data[i] = uint64(i % 7)
	}
	a := b.Data("a", data)
	out := b.Alloc("out", rows)

	b.Mark(1)
	// row = TID; row += NTH each iteration.
	row := isa.R(10)
	b.Mov(row, asm.RegTID)
	rowLoop := b.NewLabel("rowLoop")
	done := b.NewLabel("done")
	b.Bind(rowLoop)
	b.MovI(isa.R(1), int64(rows))
	b.Bge(row, isa.R(1), done)
	// base = a + row*cols*8
	b.MulI(isa.R(2), row, int64(cols*8))
	b.MovA(isa.R(3), a)
	b.Add(isa.R(2), isa.R(2), isa.R(3))
	// strip-mined column loop
	b.MovI(isa.R(4), int64(cols)) // remaining
	b.MovI(isa.R(9), 0)           // accumulator
	strip := b.NewLabel("strip")
	stripDone := b.NewLabel("stripDone")
	b.Bind(strip)
	b.Beq(isa.R(4), asm.RegZero, stripDone)
	b.SetVL(isa.R(5), isa.R(4))
	b.VLd(isa.V(1), isa.R(2))
	b.VMul(isa.V(2), isa.V(1), isa.V(1))
	b.VAdd(isa.V(3), isa.V(2), isa.V(1))
	b.VRedSum(isa.R(6), isa.V(3))
	b.Add(isa.R(9), isa.R(9), isa.R(6))
	b.SllI(isa.R(7), isa.R(5), 3)
	b.Add(isa.R(2), isa.R(2), isa.R(7))
	b.Sub(isa.R(4), isa.R(4), isa.R(5))
	b.J(strip)
	b.Bind(stripDone)
	// out[row] = acc
	b.MovA(isa.R(7), out)
	b.SllI(isa.R(8), row, 3)
	b.Add(isa.R(7), isa.R(7), isa.R(8))
	b.St(isa.R(9), isa.R(7), 0)
	b.Add(row, row, asm.RegNTH)
	b.J(rowLoop)
	b.Bind(done)
	b.Mark(0)
	b.Bar()
	b.Halt()
	return b.MustAssemble()
}

// runToEnd builds cfg's machine over prog and runs it to completion,
// failing the test on any error. The machine's VM holds the functional
// state to verify.
func runToEnd(t *testing.T, cfg Config, prog *asm.Program) (Result, *Machine) {
	t.Helper()
	m, err := NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", cfg.Name, err)
	}
	return res, m
}

// utilization reads the Figure-4 datapath census from a run's snapshot.
func utilization(res Result) vcl.Utilization {
	snap := res.Metrics()
	return vcl.Utilization{
		Busy:     snap.Uint("vcl.util.busy"),
		PartIdle: snap.Uint("vcl.util.part_idle"),
		Stalled:  snap.Uint("vcl.util.stalled"),
		AllIdle:  snap.Uint("vcl.util.all_idle"),
	}
}

// speedup is how many times faster run x finished than run base.
func speedup(base, x Result) float64 { return float64(base.Cycles) / float64(x.Cycles) }

func verifyRowSums(t *testing.T, machine *vm.VM, prog *asm.Program, rows, cols int) {
	t.Helper()
	a := prog.Symbol("a")
	out := prog.Symbol("out")
	for r := 0; r < rows; r++ {
		var want uint64
		for c := 0; c < cols; c++ {
			v := machine.Mem.MustRead(a + uint64(r*cols+c)*8)
			want += v*v + v
		}
		if got := machine.Mem.MustRead(out + uint64(r)*8); got != want {
			t.Fatalf("row %d sum = %d, want %d", r, got, want)
		}
	}
}

func TestBaseMachineRunsVectorProgram(t *testing.T) {
	prog := vectorSumProgram(64, 64)
	res, m := runToEnd(t, Base(8), prog)
	verifyRowSums(t, m.VM(), prog, 16, 64)
	if res.Cycles == 0 || res.Retired == 0 || res.Metrics().Uint("vcl.issued") == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Metrics().Float("machine.opportunity_pct") <= 0 {
		t.Error("opportunity should be positive (marked region)")
	}
}

func TestMoreLanesHelpLongVectors(t *testing.T) {
	prog1 := vectorSumProgram(64, 64)
	prog8 := vectorSumProgram(64, 64)
	r1, _ := runToEnd(t, Base(1), prog1)
	r8, _ := runToEnd(t, Base(8), prog8)
	sp := speedup(r1, r8)
	if sp < 1.5 {
		t.Errorf("8 lanes vs 1 lane speedup = %.2f on VL-64 code, want > 1.5", sp)
	}
}

func TestVLTTwoThreadsBeatBaseOnShortVectors(t *testing.T) {
	// Short rows (VL 8 on an 8-lane machine leaves most lanes idle when
	// one thread runs; two threads should help).
	mk := func() *asm.Program { return vectorSumProgram(64, 8) }
	base, baseM := runToEnd(t, Base(8), mk())
	progV := mk()
	v2, v2M := runToEnd(t, V2CMP(), progV)
	verifyRowSums(t, baseM.VM(), mk(), 64, 8)
	verifyRowSums(t, v2M.VM(), progV, 64, 8)
	sp := speedup(base, v2)
	if sp < 1.2 {
		t.Errorf("V2-CMP speedup on short vectors = %.2f, want > 1.2", sp)
	}
}

func TestVLTFourThreadConfigsRun(t *testing.T) {
	for _, cfg := range []Config{V4CMP(), V4CMT(), V4SMT(), V4CMPh()} {
		prog := vectorSumProgram(64, 8)
		res, m := runToEnd(t, cfg, prog)
		verifyRowSums(t, m.VM(), prog, 64, 8)
		if res.Cycles == 0 {
			t.Errorf("%s: zero cycles", cfg.Name)
		}
	}
}

// scalarReduceProgram: each thread sums a private slice of an array with
// scalar code, stores a partial, barrier, thread 0 combines.
func scalarReduceProgram(n int) *asm.Program {
	b := asm.NewBuilder("sreduce")
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i)
	}
	a := b.Data("a", data)
	partials := b.Alloc("partials", 16)
	total := b.Alloc("total", 1)

	b.Mark(1)
	// chunk = n / NTH; start = TID*chunk
	b.MovI(isa.R(1), int64(n))
	b.Div(isa.R(2), isa.R(1), asm.RegNTH) // chunk
	b.Mul(isa.R(3), isa.R(2), asm.RegTID) // start index
	b.MovA(isa.R(4), a)
	b.SllI(isa.R(5), isa.R(3), 3)
	b.Add(isa.R(4), isa.R(4), isa.R(5)) // ptr
	b.MovI(isa.R(6), 0)                 // acc
	b.MovI(isa.R(7), 0)                 // i
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.Ld(isa.R(8), isa.R(4), 0)
	b.Add(isa.R(6), isa.R(6), isa.R(8))
	b.AddI(isa.R(4), isa.R(4), 8)
	b.AddI(isa.R(7), isa.R(7), 1)
	b.Blt(isa.R(7), isa.R(2), loop)
	// partials[TID] = acc
	b.MovA(isa.R(9), partials)
	b.SllI(isa.R(10), asm.RegTID, 3)
	b.Add(isa.R(9), isa.R(9), isa.R(10))
	b.St(isa.R(6), isa.R(9), 0)
	b.Mark(0)
	b.Bar()
	fin := b.NewLabel("fin")
	b.Bne(asm.RegTID, asm.RegZero, fin)
	b.MovA(isa.R(11), partials)
	b.MovI(isa.R(12), 0)
	b.MovI(isa.R(13), 0)
	cl := b.NewLabel("cl")
	b.Bind(cl)
	b.Ld(isa.R(14), isa.R(11), 0)
	b.Add(isa.R(12), isa.R(12), isa.R(14))
	b.AddI(isa.R(11), isa.R(11), 8)
	b.AddI(isa.R(13), isa.R(13), 1)
	b.Blt(isa.R(13), asm.RegNTH, cl)
	b.MovA(isa.R(15), total)
	b.St(isa.R(12), isa.R(15), 0)
	b.Bind(fin)
	b.Halt()
	return b.MustAssemble()
}

func TestCMTRunsScalarThreads(t *testing.T) {
	const n = 1024
	prog := scalarReduceProgram(n)
	res, m := runToEnd(t, CMT(4), prog)
	want := uint64(n * (n - 1) / 2)
	if got := m.VM().Mem.MustRead(prog.Symbol("total")); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
}

func TestLaneScalarModeRunsEightThreads(t *testing.T) {
	const n = 1024
	prog := scalarReduceProgram(n)
	res, m := runToEnd(t, VLTScalar(8), prog)
	want := uint64(n * (n - 1) / 2)
	if got := m.VM().Mem.MustRead(prog.Symbol("total")); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
}

func TestBarrierSynchronizesProducerConsumer(t *testing.T) {
	// Thread 0 writes a flag value before the barrier; all threads read it
	// after and store what they saw.
	b := asm.NewBuilder("barsync")
	flag := b.Alloc("flag", 1)
	seen := b.Alloc("seen", 8)
	skip := b.NewLabel("skip")
	b.Bne(asm.RegTID, asm.RegZero, skip)
	b.MovI(isa.R(1), 77)
	b.MovA(isa.R(2), flag)
	b.St(isa.R(1), isa.R(2), 0)
	b.Bind(skip)
	b.Bar()
	b.MovA(isa.R(3), flag)
	b.Ld(isa.R(4), isa.R(3), 0)
	b.MovA(isa.R(5), seen)
	b.SllI(isa.R(6), asm.RegTID, 3)
	b.Add(isa.R(5), isa.R(5), isa.R(6))
	b.St(isa.R(4), isa.R(5), 0)
	b.Halt()
	prog := b.MustAssemble()
	_, m := runToEnd(t, CMT(4), prog)
	for tid := 0; tid < 4; tid++ {
		if got := m.VM().Mem.MustRead(prog.Symbol("seen") + uint64(tid)*8); got != 77 {
			t.Errorf("thread %d saw %d, want 77", tid, got)
		}
	}
}

// vltcfgProgram exercises dynamic repartitioning: a single-thread long
// vector phase with all lanes, then a 4-thread phase with 2 lanes each.
func vltcfgProgram() *asm.Program {
	b := asm.NewBuilder("cfg")
	a := b.Alloc("a", 64)
	outA := b.Alloc("outA", 1)
	outB := b.Alloc("outB", 8)

	only0 := b.NewLabel("only0")
	join := b.NewLabel("join")
	b.Bne(asm.RegTID, asm.RegZero, join)
	b.Bind(only0)
	// Phase 1: single partition, full VL.
	b.VltCfg(1)
	b.MovI(isa.R(1), 64)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.MovA(isa.R(3), a)
	b.VSt(isa.V(1), isa.R(3))
	b.VRedSum(isa.R(4), isa.V(1))
	b.MovA(isa.R(5), outA)
	b.St(isa.R(4), isa.R(5), 0)
	// Phase 2 config: 4 partitions.
	b.VltCfg(4)
	b.Bind(join)
	b.Bar()
	// All 4 threads: VL limited to 16 now.
	b.MovI(isa.R(1), 64)
	b.SetVL(isa.R(2), isa.R(1)) // clamps to 16
	b.MovA(isa.R(6), outB)
	b.SllI(isa.R(7), asm.RegTID, 3)
	b.Add(isa.R(6), isa.R(6), isa.R(7))
	b.St(isa.R(2), isa.R(6), 0) // record observed VL
	b.Bar()
	b.Halt()
	return b.MustAssemble()
}

func TestVltCfgRepartitionsMidRun(t *testing.T) {
	prog := vltcfgProgram()
	_, m := runToEnd(t, V4CMT(), prog)
	if got := m.VM().Mem.MustRead(prog.Symbol("outA")); got != 64*63/2 {
		t.Errorf("phase-1 redsum = %d, want %d", got, 64*63/2)
	}
	for tid := 0; tid < 4; tid++ {
		if got := m.VM().Mem.MustRead(prog.Symbol("outB") + uint64(tid)*8); got != 16 {
			t.Errorf("thread %d observed VL %d after vltcfg 4, want 16", tid, got)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{Name: "bad", NumThreads: 0}).Validate(); err == nil {
		t.Error("zero threads should fail")
	}
	c := V2CMP()
	c.NumThreads = 5
	if err := c.Validate(); err == nil {
		t.Error("5 threads on 2 slots should fail")
	}
	c2 := VLTScalar(9)
	if err := c2.Validate(); err == nil {
		t.Error("9 threads on 8 lanes should fail")
	}
	c3 := Base(8)
	c3.InitialPartitions = 3
	if err := c3.Validate(); err == nil {
		t.Error("3 partitions of 8 lanes should fail")
	}
}

func TestUtilizationRecordedOnVectorRuns(t *testing.T) {
	prog := vectorSumProgram(64, 64)
	res, _ := runToEnd(t, Base(8), prog)
	util := utilization(res)
	if util.Total() == 0 {
		t.Fatal("no utilization recorded")
	}
	if util.Busy == 0 {
		t.Error("no busy datapath cycles on a vector workload")
	}
	// Conservation: total = cycles * 3 VFUs * 8 lanes.
	want := res.Cycles * 3 * 8
	if util.Total() != want {
		t.Errorf("utilization total %d, want %d", util.Total(), want)
	}
}
