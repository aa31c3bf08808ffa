package lane

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

func runCore(t *testing.T, b *asm.Builder) (*Core, uint64) {
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
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), l2)
	c.AttachThread(0)
	var now uint64
	for ; !c.Done(); now++ {
		c.Tick(now)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if now > 10_000_000 {
			t.Fatal("lane core did not finish")
		}
	}
	return c, now
}

func computeLoop(iters int) *asm.Builder {
	b := asm.NewBuilder("loop")
	b.MovI(isa.R(1), int64(iters))
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

func TestLaneCoreRunsLoop(t *testing.T) {
	c, cycles := runCore(t, computeLoop(500))
	if c.Retired == 0 {
		t.Fatal("nothing retired")
	}
	ipc := float64(c.Retired) / float64(cycles)
	if ipc > 2.01 {
		t.Errorf("IPC %.2f exceeds 2-way width", ipc)
	}
	if ipc < 0.8 {
		t.Errorf("IPC %.2f too low for simple loop", ipc)
	}
}

func TestInOrderIssueBlocksOnDependency(t *testing.T) {
	// A load followed by a dependent add: the add (and everything after)
	// waits for the L2 latency; an independent add behind it also waits
	// (in-order issue).
	b := asm.NewBuilder("dep")
	x := b.Data("x", []uint64{41})
	b.MovA(isa.R(1), x)
	b.Ld(isa.R(2), isa.R(1), 0)
	b.AddI(isa.R(3), isa.R(2), 1) // dependent
	b.MovI(isa.R(4), 9)           // independent but in-order
	b.Halt()
	c, cycles := runCore(t, b)
	// Cold L2 miss is 100 cycles; total must reflect it.
	if cycles < 100 {
		t.Errorf("run took %d cycles, expected >= 100 (L2 miss exposed)", cycles)
	}
	if c.StallOperand == 0 {
		t.Error("expected operand stalls from in-order issue")
	}
}

func TestDecoupledLoadsOverlap(t *testing.T) {
	// Loads with no consumers should pipeline: 8 independent loads to
	// different banks cost far less than 8 * latency.
	b := asm.NewBuilder("decoupled")
	arr := b.Alloc("arr", 64)
	b.MovA(isa.R(1), arr)
	for i := 0; i < 8; i++ {
		b.Ld(isa.R(2+i), isa.R(1), int64(i*8))
	}
	b.Halt()
	_, cycles := runCore(t, b)
	// One cold data miss (~100) covers the line and later hits overlap;
	// code cold misses add ~300. Serialized loads would exceed 1000.
	if cycles > 500 {
		t.Errorf("independent loads took %d cycles; decoupling broken", cycles)
	}
}

func TestLaneICacheMissesStallFetch(t *testing.T) {
	// A program bigger than the 4KB lane I-cache (256 instructions)
	// executed twice via an outer loop: every line misses on first touch.
	b := asm.NewBuilder("bigcode")
	b.MovI(isa.R(1), 2) // outer iterations
	outer := b.NewLabel("outer")
	b.Bind(outer)
	for i := 0; i < 600; i++ {
		b.AddI(isa.R(2), isa.R(2), 1)
	}
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, outer)
	b.Halt()
	c, _ := runCore(t, b)
	if c.icache.MissTo2 < 150 {
		t.Errorf("expected >=150 lane I-cache misses for 600-instruction body, got %d",
			c.icache.MissTo2)
	}
}

func TestVectorInstructionFaults(t *testing.T) {
	b := asm.NewBuilder("vec")
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	for now := uint64(0); now < 1000 && c.Err == nil && !c.Done(); now++ {
		c.Tick(now)
	}
	if c.Err == nil {
		t.Fatal("expected fault for vector instruction on lane core")
	}
}

func TestBarrierBlocksUntilReleased(t *testing.T) {
	b := asm.NewBuilder("bar")
	b.MovI(isa.R(1), 1)
	b.Bar()
	b.MovI(isa.R(2), 2)
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	var now uint64
	for ; now < 500; now++ {
		c.Tick(now)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	bar := c.BarrierWaiting()
	if bar == 0 {
		t.Fatal("barrier should be waiting at retire head")
	}
	if c.Done() {
		t.Fatal("core finished through an unreleased barrier")
	}
	c.arena.Complete(bar, now) // release
	for ; !c.Done(); now++ {
		c.Tick(now)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if now > 2000 {
			t.Fatal("core did not finish after barrier release")
		}
	}
}

func TestRetireOrderPreserved(t *testing.T) {
	b := asm.NewBuilder("order")
	x := b.Data("x", []uint64{5})
	b.MovA(isa.R(1), x)
	b.Ld(isa.R(2), isa.R(1), 0) // slow
	b.MovI(isa.R(3), 1)         // fast, issued after, completes first
	b.MovI(isa.R(4), 2)
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	var order []int
	c.OnRetire = func(u *pipe.Uop) { order = append(order, u.Dyn.PC) }
	for now := uint64(0); !c.Done(); now++ {
		c.Tick(now)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if now > 100000 {
			t.Fatal("did not finish")
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("out-of-order retirement: %v", order)
		}
	}
}
