package scalar

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

func newUnit(t *testing.T, b *asm.Builder, threads int, cfg Config) (*Unit, *vm.VM) {
	t.Helper()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, threads)
	if err != nil {
		t.Fatal(err)
	}
	u := New(0, cfg, machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), nil)
	for s := 0; s < threads && s < cfg.Contexts; s++ {
		u.AttachThread(s, s)
	}
	return u, machine
}

func tick(t *testing.T, u *Unit, cycles uint64) uint64 {
	t.Helper()
	var now uint64
	for ; now < cycles && !u.Done(); now++ {
		u.Tick(now)
		if u.Err != nil {
			t.Fatal(u.Err)
		}
	}
	return now
}

func TestBarrierWaitingAtROBHead(t *testing.T) {
	b := asm.NewBuilder("bar")
	b.MovI(isa.R(1), 1)
	b.Bar()
	b.MovI(isa.R(2), 2)
	b.Halt()
	u, _ := newUnit(t, b, 1, Config4Way())
	tick(t, u, 200)
	bar := u.BarrierWaiting(0)
	if bar == 0 {
		t.Fatal("BAR should be waiting at the ROB head")
	}
	if u.Done() {
		t.Fatal("unit finished through an unreleased barrier")
	}
	// Release and drain.
	u.arena.Complete(bar, 200)
	var now uint64 = 200
	for ; !u.Done() && now < 1000; now++ {
		u.Tick(now)
	}
	if !u.Done() {
		t.Fatal("unit did not finish after barrier release")
	}
}

func TestVltCfgWaitingAtROBHead(t *testing.T) {
	b := asm.NewBuilder("cfg")
	b.MovI(isa.R(1), 1)
	b.VltCfg(2)
	b.MovI(isa.R(2), 2)
	b.Halt()
	u, _ := newUnit(t, b, 1, Config4Way())
	tick(t, u, 200)
	id := u.VltCfgWaiting(0)
	if id == 0 {
		t.Fatal("VLTCFG should be waiting at the ROB head")
	}
	if cfgUop := u.arena.At(id); cfgUop.Dyn.VltCfg != 2 {
		t.Errorf("VltCfg payload = %d, want 2", cfgUop.Dyn.VltCfg)
	}
	if u.BarrierWaiting(0) != 0 {
		t.Error("VLTCFG must not be reported as a barrier")
	}
}

func TestStoreBufferDoesNotStallRetire(t *testing.T) {
	// A cold-miss store retires through the store buffer, while a
	// cold-miss load with a dependent consumer must wait the full miss.
	// The same code shape is used so I-cache effects cancel.
	build := func(load bool) *asm.Builder {
		b := asm.NewBuilder("stb")
		buf := b.Alloc("buf", 32*8) // one cold line per iteration
		b.MovA(isa.R(1), buf)
		b.MovI(isa.R(2), 7)
		b.MovI(isa.R(4), 32)
		loop := b.NewLabel("loop")
		b.Bind(loop)
		if load {
			b.Ld(isa.R(2), isa.R(1), 0)
			b.Add(isa.R(5), isa.R(5), isa.R(2)) // dependent consumer
		} else {
			b.St(isa.R(2), isa.R(1), 0)
			b.AddI(isa.R(5), isa.R(5), 1) // independent op
		}
		b.AddI(isa.R(1), isa.R(1), 64) // next cache line (cold)
		b.SubI(isa.R(4), isa.R(4), 1)
		b.Bne(isa.R(4), asm.RegZero, loop)
		b.Halt()
		return b
	}
	uSt, _ := newUnit(t, build(false), 1, Config4Way())
	stCycles := tick(t, uSt, 100000)
	uLd, _ := newUnit(t, build(true), 1, Config4Way())
	ldCycles := tick(t, uLd, 100000)
	if ldCycles < stCycles+100 {
		t.Errorf("store should retire early: store run %d cycles, load run %d",
			stCycles, ldCycles)
	}
}

func TestSMT4ContextsAllProgress(t *testing.T) {
	b := asm.NewBuilder("smt4")
	slots := b.Alloc("slots", 8)
	b.MovA(isa.R(1), slots)
	b.SllI(isa.R(2), asm.RegTID, 3)
	b.Add(isa.R(1), isa.R(1), isa.R(2))
	b.MovI(isa.R(3), 100)
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.SubI(isa.R(3), isa.R(3), 1)
	b.Bne(isa.R(3), asm.RegZero, loop)
	b.AddI(isa.R(4), asm.RegTID, 1)
	b.St(isa.R(4), isa.R(1), 0)
	b.Halt()
	u, machine := newUnit(t, b, 4, Config4Way().WithSMT(4))
	tick(t, u, 100000)
	if !u.Done() {
		t.Fatal("SMT-4 unit did not finish")
	}
	for tid := 0; tid < 4; tid++ {
		addr := machine.Mem.MustRead(0) // placeholder; real check below
		_ = addr
		got := machine.Mem.MustRead(uint64(asm.DataBase)+uint64(tid)*8) - uint64(tid) - 1
		if got != 0 {
			t.Errorf("thread %d marker wrong", tid)
		}
	}
}

func TestROBSharingCapEnforced(t *testing.T) {
	// One thread blocks on a barrier; the other must still be able to
	// dispatch (the shared ROB keeps at least 1/4 for it).
	b := asm.NewBuilder("robshare")
	done := b.NewLabel("done")
	b.Bne(asm.RegTID, asm.RegZero, done)
	b.Bar() // thread 0 parks at the barrier
	b.Bind(done)
	b.MovI(isa.R(1), 200)
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, loop)
	b.Halt()
	u, machine := newUnit(t, b, 2, Config4Way().WithSMT(2))
	tick(t, u, 50000)
	// Thread 1 must have halted even though thread 0 is parked.
	if !machine.Thread(1).Halted {
		t.Fatal("thread 1 starved behind thread 0's barrier")
	}
}

func TestSetVLExecutesInScalarUnit(t *testing.T) {
	b := asm.NewBuilder("setvl")
	b.MovI(isa.R(1), 40)
	b.SetVL(isa.R(2), isa.R(1))
	b.AddI(isa.R(3), isa.R(2), 1) // consumer of setvl's scalar result
	b.Halt()
	u, machine := newUnit(t, b, 1, Config4Way())
	tick(t, u, 1000)
	if !u.Done() {
		t.Fatal("did not finish")
	}
	if got := machine.Thread(0).IntRegs[3]; got != 41 {
		t.Errorf("setvl consumer got %d, want 41", got)
	}
}

func TestStallCountersMove(t *testing.T) {
	// A tight dependent loop with a hard-to-predict branch should move
	// the branch stall counter; a big straight-line block moves the
	// I-cache counter.
	b := asm.NewBuilder("ctrs")
	b.MovI(isa.R(1), 200)
	loop := b.NewLabel("loop")
	skip := b.NewLabel("skip")
	b.Bind(loop)
	b.AndI(isa.R(2), isa.R(1), 1)
	b.Beq(isa.R(2), asm.RegZero, skip)
	b.AddI(isa.R(3), isa.R(3), 1)
	b.Bind(skip)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, loop)
	for i := 0; i < 300; i++ {
		b.AddI(isa.R(4), isa.R(4), 1)
	}
	b.Halt()
	u, _ := newUnit(t, b, 1, Config4Way())
	tick(t, u, 100000)
	if u.FetchStallBranch == 0 {
		t.Error("expected branch fetch stalls")
	}
	if u.FetchStallICache == 0 {
		t.Error("expected I-cache fetch stalls on the straight-line block")
	}
	if u.Fetched == 0 || u.Dispatched == 0 || u.IssuedCount == 0 || u.Retired == 0 {
		t.Error("pipeline counters did not move")
	}
}

func TestConfig2WayHalvesResources(t *testing.T) {
	c := Config2Way()
	if c.Width != 2 || c.WindowSize != 32 || c.ROBSize != 32 || c.NumALU != 2 || c.NumMemPorts != 1 {
		t.Errorf("Config2Way wrong: %+v", c)
	}
	// Caches stay identical to the 4-way unit (the paper's rule).
	if c.L1D != Config4Way().L1D || c.L1I != Config4Way().L1I {
		t.Error("2-way SU caches should match the 4-way SU")
	}
}
