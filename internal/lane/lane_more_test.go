package lane

import (
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

func runCoreCfg(t *testing.T, b *asm.Builder, cfg Config) (*Core, uint64) {
	t.Helper()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0, cfg, machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
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

// decoupleProbe: a cold load with a dependent consumer, followed by a
// burst of independent adds. With the decoupling window the adds overlap
// the miss; with a strictly blocking pipeline they wait behind it.
func decoupleProbe() *asm.Builder {
	b := asm.NewBuilder("probe")
	buf := b.Alloc("buf", 64)
	b.MovA(isa.R(1), buf)
	b.MovI(isa.R(9), 50)
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.Ld(isa.R(2), isa.R(1), 0)
	b.Add(isa.R(3), isa.R(3), isa.R(2)) // dependent on the load
	b.AddI(isa.R(4), isa.R(4), 1)       // independent work
	b.AddI(isa.R(5), isa.R(5), 1)
	b.AddI(isa.R(6), isa.R(6), 1)
	b.AddI(isa.R(7), isa.R(7), 1)
	b.SubI(isa.R(9), isa.R(9), 1)
	b.Bne(isa.R(9), asm.RegZero, loop)
	b.Halt()
	return b
}

func TestDecoupleWindowBeatsBlockingPipeline(t *testing.T) {
	blocking := DefaultConfig()
	blocking.DecoupleWindow = 1
	_, blockCycles := runCoreCfg(t, decoupleProbe(), blocking)
	_, windowCycles := runCoreCfg(t, decoupleProbe(), DefaultConfig())
	if float64(blockCycles) < 1.3*float64(windowCycles) {
		t.Errorf("decoupling should pay: blocking %d vs window %d cycles",
			blockCycles, windowCycles)
	}
}

func TestDecoupleWindowPreservesResults(t *testing.T) {
	// Timing configurations must not change functional outcomes.
	for _, window := range []int{1, 4, 12} {
		cfg := DefaultConfig()
		cfg.DecoupleWindow = window
		b := asm.NewBuilder("fn")
		data := b.Data("d", []uint64{5, 6, 7, 8})
		b.MovA(isa.R(1), data)
		b.Ld(isa.R(2), isa.R(1), 0)
		b.Ld(isa.R(3), isa.R(1), 8)
		b.Add(isa.R(4), isa.R(2), isa.R(3))
		b.Ld(isa.R(5), isa.R(1), 16)
		b.Add(isa.R(4), isa.R(4), isa.R(5))
		b.Halt()
		c, _ := runCoreCfg(t, b, cfg)
		if got := c.vmach.Thread(0).IntRegs[4]; got != 18 {
			t.Errorf("window=%d: r4 = %d, want 18", window, got)
		}
	}
}

func TestRetireQueueGatesFetch(t *testing.T) {
	// A tiny retire queue throttles the whole pipeline but must not
	// deadlock or reorder retirement.
	cfg := DefaultConfig()
	cfg.RetireQueue = 4
	b := asm.NewBuilder("rq")
	b.MovI(isa.R(1), 100)
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.AddI(isa.R(2), isa.R(2), 1)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, loop)
	b.Halt()
	c, _ := runCoreCfg(t, b, cfg)
	if got := c.vmach.Thread(0).IntRegs[2]; got != 100 {
		t.Errorf("r2 = %d, want 100", got)
	}
}

func TestRetireOrderWithLookahead(t *testing.T) {
	// Even with out-of-order issue within the window, retirement is in
	// program order.
	b := asm.NewBuilder("order")
	x := b.Data("x", []uint64{3})
	b.MovA(isa.R(1), x)
	b.Ld(isa.R(2), isa.R(1), 0) // slow (cold)
	b.MovI(isa.R(3), 1)         // issues past the load
	b.MovI(isa.R(4), 2)
	b.MovI(isa.R(5), 3)
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	var pcs []int
	c.OnRetire = func(u *pipe.Uop) { pcs = append(pcs, u.Dyn.PC) }
	for now := uint64(0); !c.Done(); now++ {
		c.Tick(now)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if now > 100000 {
			t.Fatal("did not finish")
		}
	}
	for i := 1; i < len(pcs); i++ {
		if pcs[i] < pcs[i-1] {
			t.Fatalf("retirement out of order: %v", pcs)
		}
	}
	if len(pcs) != len(prog.Code) {
		t.Errorf("retired %d of %d instructions", len(pcs), len(prog.Code))
	}
}

func TestBarrierIsSequencingPoint(t *testing.T) {
	// Instructions after a BAR must not issue before it is released even
	// though the lookahead window could reach them.
	b := asm.NewBuilder("barseq")
	b.MovI(isa.R(1), 1)
	b.Bar()
	b.MovI(isa.R(2), 2)
	b.Halt()
	prog := b.MustAssemble()
	machine, _ := vm.New(prog, 1)
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	for now := uint64(0); now < 300; now++ {
		c.Tick(now)
	}
	if c.BarrierWaiting() == 0 {
		t.Fatal("barrier should be waiting")
	}
	// The instruction after BAR must not have issued or retired: the
	// barrier blocks fetch, so nothing past it is even in the pipeline.
	if c.Retired > 2 { // movi (+ possibly nothing else)
		t.Errorf("retired %d instructions through an unreleased barrier", c.Retired)
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// Alternating branch: lane cores pay resolve + redirect on mispredicts.
	mk := func(iters int64) *asm.Builder {
		b := asm.NewBuilder("mp")
		b.MovI(isa.R(1), iters)
		loop := b.NewLabel("loop")
		odd := b.NewLabel("odd")
		join := b.NewLabel("join")
		b.Bind(loop)
		b.AndI(isa.R(2), isa.R(1), 1)
		b.Bne(isa.R(2), asm.RegZero, odd)
		b.AddI(isa.R(3), isa.R(3), 1)
		b.J(join)
		b.Bind(odd)
		b.AddI(isa.R(3), isa.R(3), 2)
		b.Bind(join)
		b.SubI(isa.R(1), isa.R(1), 1)
		b.Bne(isa.R(1), asm.RegZero, loop)
		b.Halt()
		return b
	}
	c, _ := runCoreCfg(t, mk(300), DefaultConfig())
	if c.pred.Mispredicts == 0 {
		t.Error("alternating branch should mispredict on the lane predictor")
	}
}

// TestVltCfgFaultsOnLaneCore pins the fault a VLTCFG raises on a lane
// core: lane threads cannot repartition the machine. The fault is
// raised when the instruction reaches the head of the fetch queue and
// issues, so its cycle is fixed by the instructions ahead of it.
func TestVltCfgFaultsOnLaneCore(t *testing.T) {
	b := asm.NewBuilder("vltcfg")
	x := b.Data("x", []uint64{41})
	b.MovA(isa.R(1), x)
	b.Ld(isa.R(2), isa.R(1), 0)
	b.AddI(isa.R(3), isa.R(2), 1)
	b.VltCfg(2)
	b.AddI(isa.R(4), isa.R(3), 1)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	for now := uint64(0); ; now++ {
		if c.Done() || now > 100_000 {
			t.Fatalf("no fault by cycle %d", now)
		}
		if c.Tick(now); c.Err == nil {
			continue
		}
		if got, want := c.Err.Error(), "lane: vltcfg executed on lane core 0"; got != want {
			t.Errorf("fault %q, want %q", got, want)
		}
		// The load misses to memory; the add waits for it and the
		// VLTCFG issues behind the add.
		if now != 208 {
			t.Errorf("fault at cycle %d, want 208", now)
		}
		return
	}
}

// TestDecoupleWindowClampedInNew pins the one clamp: New takes a window
// below 1 as 1, so a zero or negative window runs exactly like the
// strictly blocking pipeline.
func TestDecoupleWindowClampedInNew(t *testing.T) {
	blocking := DefaultConfig()
	blocking.DecoupleWindow = 1
	_, want := runCoreCfg(t, decoupleProbe(), blocking)
	for _, window := range []int{0, -3} {
		cfg := DefaultConfig()
		cfg.DecoupleWindow = window
		c, got := runCoreCfg(t, decoupleProbe(), cfg)
		if c.cfg.DecoupleWindow != 1 {
			t.Errorf("window %d: core runs with window %d, want 1", window, c.cfg.DecoupleWindow)
		}
		if got != want {
			t.Errorf("window %d: %d cycles, want the blocking pipeline's %d", window, got, want)
		}
	}
}

// TestFetchQueueHoleIsAnInvariantViolation pins what the issue walk
// relies on: between cycles the fetch queue holds no holes.
func TestFetchQueueHoleIsAnInvariantViolation(t *testing.T) {
	prog, err := decoupleProbe().Assemble()
	if err != nil {
		t.Fatal(err)
	}
	machine, err := vm.New(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0, DefaultConfig(), machine, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()))
	c.AttachThread(0)
	for now := uint64(0); len(c.fetchQ) == 0; now++ {
		if now > 1000 {
			t.Fatal("fetch queue never filled")
		}
		c.Tick(now)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("healthy core: %v", err)
	}
	c.fetchQ[0] = 0
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "hole") {
		t.Errorf("hole in the fetch queue: CheckInvariants = %v, want a hole violation", err)
	}
}
