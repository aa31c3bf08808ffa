package scalar

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

// runProgram executes a single-threaded scalar program on one SU and
// returns the unit and the cycle count at completion.
func runProgram(t *testing.T, b *asm.Builder, cfg Config) (*Unit, uint64) {
	t.Helper()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2 := mem.NewL2(mem.DefaultL2Config())
	u := New(0, cfg, machine, new(pipe.Arena), l2, nil)
	u.AttachThread(0, 0)
	var now uint64
	for ; !u.Done(); now++ {
		u.Tick(now)
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if now > 10_000_000 {
			t.Fatal("scalar unit did not finish")
		}
	}
	return u, now
}

// chainProgram emits a loop executing n dependent adds in total (8 per
// iteration), so the hot code fits in the instruction cache.
func chainProgram(n int) *asm.Builder {
	b := asm.NewBuilder("chain")
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), int64(n/8))
	loop := b.NewLabel("loop")
	b.Bind(loop)
	for i := 0; i < 8; i++ {
		b.AddI(isa.R(1), isa.R(1), 1)
	}
	b.SubI(isa.R(2), isa.R(2), 1)
	b.Bne(isa.R(2), asm.RegZero, loop)
	b.Halt()
	return b
}

// parallelProgram emits a loop executing n independent adds in total
// (8 distinct accumulators per iteration).
func parallelProgram(n int) *asm.Builder {
	b := asm.NewBuilder("par")
	for i := 0; i < 8; i++ {
		b.MovI(isa.R(i+1), 0)
	}
	b.MovI(isa.R(9), int64(n/8))
	loop := b.NewLabel("loop")
	b.Bind(loop)
	for i := 0; i < 8; i++ {
		b.AddI(isa.R(i+1), isa.R(i+1), 1)
	}
	b.SubI(isa.R(9), isa.R(9), 1)
	b.Bne(isa.R(9), asm.RegZero, loop)
	b.Halt()
	return b
}

func TestDependentChainSerializes(t *testing.T) {
	const n = 4000
	_, cycles := runProgram(t, chainProgram(n), Config4Way())
	if cycles < n {
		t.Errorf("dependent chain of %d finished in %d cycles (impossible)", n, cycles)
	}
	if cycles > uint64(n)+1000 {
		t.Errorf("dependent chain took %d cycles, expected about %d", cycles, n)
	}
}

func TestIndependentOpsReachWideIPC(t *testing.T) {
	const n = 4000
	u, cycles := runProgram(t, parallelProgram(n), Config4Way())
	ipc := float64(u.Retired) / float64(cycles)
	// 8 independent chains on a 4-wide machine: should sustain IPC near 4
	// but never above width.
	if ipc < 2.3 {
		t.Errorf("IPC = %.2f, want >= 2.3 on independent code", ipc)
	}
	if ipc > 4.01 {
		t.Errorf("IPC = %.2f exceeds machine width", ipc)
	}
}

func TestNarrowUnitIsSlower(t *testing.T) {
	const n = 4000
	_, wide := runProgram(t, parallelProgram(n), Config4Way())
	_, narrow := runProgram(t, parallelProgram(n), Config2Way())
	if float64(narrow) < 1.4*float64(wide) {
		t.Errorf("2-way (%d cycles) should be much slower than 4-way (%d) on parallel code",
			narrow, wide)
	}
}

// branchy emits a loop whose body branches on the loop counter's low bit
// (alternating, hard to predict).
func branchyProgram(iters int) *asm.Builder {
	b := asm.NewBuilder("branchy")
	b.MovI(isa.R(1), int64(iters))
	b.MovI(isa.R(2), 0) // accumulator
	loop := b.NewLabel("loop")
	other := b.NewLabel("other")
	join := b.NewLabel("join")
	b.Bind(loop)
	b.AndI(isa.R(3), isa.R(1), 1)
	b.Bne(isa.R(3), asm.RegZero, other)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.J(join)
	b.Bind(other)
	b.AddI(isa.R(2), isa.R(2), 2)
	b.Bind(join)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, loop)
	b.Halt()
	return b
}

func TestMispredictionsCostCycles(t *testing.T) {
	u, cycles := runProgram(t, branchyProgram(500), Config4Way())
	if u.FetchStallBranch == 0 {
		t.Error("alternating branch code should stall fetch on mispredicts")
	}
	// Sanity: still finishes in reasonable time.
	if cycles > 50_000 {
		t.Errorf("branchy loop took %d cycles", cycles)
	}
}

func TestLoadLatencyExposed(t *testing.T) {
	// Pointer-chase: each load depends on the previous one's value.
	const n = 64
	b := asm.NewBuilder("chase")
	// Build a linked list in data memory: node i points to node i+1.
	nodes := b.Alloc("nodes", n)
	// Initialize links functionally via code: store addresses.
	b.MovA(isa.R(1), nodes)
	b.MovI(isa.R(2), 0)
	initLoop := b.NewLabel("init")
	b.Bind(initLoop)
	b.AddI(isa.R(3), isa.R(1), 8) // next node address
	b.St(isa.R(3), isa.R(1), 0)
	b.Mov(isa.R(1), isa.R(3))
	b.AddI(isa.R(2), isa.R(2), 1)
	b.SltI(isa.R(4), isa.R(2), n-1)
	b.Bne(isa.R(4), asm.RegZero, initLoop)
	// Chase.
	b.MovA(isa.R(5), nodes)
	b.MovI(isa.R(6), 0)
	chase := b.NewLabel("chase")
	b.Bind(chase)
	b.Ld(isa.R(5), isa.R(5), 0)
	b.AddI(isa.R(6), isa.R(6), 1)
	b.SltI(isa.R(7), isa.R(6), n-1)
	b.Bne(isa.R(7), asm.RegZero, chase)
	b.Halt()
	_, cycles := runProgram(t, b, Config4Way())
	// The chase has n-1 dependent loads; even all-hit that is ~n cycles on
	// top of the init loop.
	if cycles < 2*n {
		t.Errorf("pointer chase finished in %d cycles, too fast", cycles)
	}
}

func TestSMTTwoThreadsShareUnit(t *testing.T) {
	// Two threads each run an independent compute loop; an SMT-2 unit
	// should finish both in well under 2x the single-thread time.
	mk := func() *asm.Builder {
		b := asm.NewBuilder("smt")
		b.MovI(isa.R(1), 800)
		b.MovI(isa.R(2), 0)
		b.MovI(isa.R(3), 0)
		loop := b.NewLabel("loop")
		b.Bind(loop)
		b.AddI(isa.R(2), isa.R(2), 3)
		b.AddI(isa.R(3), isa.R(3), 5)
		b.SubI(isa.R(1), isa.R(1), 1)
		b.Bne(isa.R(1), asm.RegZero, loop)
		b.Halt()
		return b
	}
	// Single thread on plain 4-way.
	_, oneCycles := runProgram(t, mk(), Config4Way())

	// Two threads on SMT-2.
	prog := mk().MustAssemble()
	machine, err := vm.New(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	l2 := mem.NewL2(mem.DefaultL2Config())
	u := New(0, Config4Way().WithSMT(2), machine, new(pipe.Arena), l2, nil)
	u.AttachThread(0, 0)
	u.AttachThread(1, 1)
	var now uint64
	for ; !u.Done(); now++ {
		u.Tick(now)
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if now > 1_000_000 {
			t.Fatal("SMT run did not finish")
		}
	}
	if now >= 2*oneCycles {
		t.Errorf("SMT-2 (%d cycles) should beat serializing two runs (%d each)", now, oneCycles)
	}
	if now < oneCycles {
		t.Errorf("SMT-2 (%d cycles) cannot beat a single-thread run (%d)", now, oneCycles)
	}
}

func TestVectorInstructionWithoutVURaisesError(t *testing.T) {
	b := asm.NewBuilder("novu")
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	u := New(0, Config4Way(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), nil)
	u.AttachThread(0, 0)
	for now := uint64(0); now < 1000 && u.Err == nil && !u.Done(); now++ {
		u.Tick(now)
	}
	if u.Err == nil {
		t.Fatal("expected error dispatching vector op with no vector unit")
	}
}

func TestRetireIsInOrder(t *testing.T) {
	// A slow divide followed by fast adds: the adds may issue out of
	// order but must retire after the divide.
	b := asm.NewBuilder("order")
	b.MovI(isa.R(1), 100)
	b.MovI(isa.R(2), 7)
	b.Div(isa.R(3), isa.R(1), isa.R(2))
	b.AddI(isa.R(4), isa.R(1), 1)
	b.AddI(isa.R(5), isa.R(1), 2)
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	u := New(0, Config4Way(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), nil)
	u.AttachThread(0, 0)
	var retireOrder []int
	u.OnRetire = func(uop *pipe.Uop) {
		retireOrder = append(retireOrder, uop.Dyn.PC)
	}
	for now := uint64(0); !u.Done(); now++ {
		u.Tick(now)
		if u.Err != nil {
			t.Fatal(u.Err)
		}
		if now > 100000 {
			t.Fatal("did not finish")
		}
	}
	for i := 1; i < len(retireOrder); i++ {
		if retireOrder[i] < retireOrder[i-1] {
			t.Fatalf("out-of-order retirement: %v", retireOrder)
		}
	}
}
