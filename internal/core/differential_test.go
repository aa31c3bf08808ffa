package core

import (
	"math/rand"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/vm"
)

// Differential testing: for randomly generated (terminating) programs,
// the timed machine and the pure functional simulator must agree on all
// architectural state. Any timing-model bug that misroutes functional
// execution — wrong thread stepped, fetch past a halt, barrier released
// early enough to break program order — shows up here.

// genProgram emits a random structured program: a bounded loop whose body
// mixes scalar arithmetic, memory traffic, vector work and branches.
func genProgram(rng *rand.Rand, threads int) *asm.Program {
	return genProgramKind(rng, threads, false)
}

// genScalarProgram is genProgram without vector instructions, for the
// machines that lack a vector unit.
func genScalarProgram(rng *rand.Rand, threads int) *asm.Program {
	return genProgramKind(rng, threads, true)
}

func genProgramKind(rng *rand.Rand, threads int, scalarOnly bool) *asm.Program {
	b := asm.NewBuilder("fuzz")
	n := 32 + rng.Intn(64)
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(rng.Intn(1 << 16))
	}
	arr := b.Data("arr", data)
	out := b.Alloc("out", 64*threads)

	rI := func() isa.Reg { return isa.R(1 + rng.Intn(20)) } // r1..r20 scratch
	rV := func() isa.Reg { return isa.V(rng.Intn(8)) }
	rF := func() isa.Reg { return isa.F(rng.Intn(8)) }

	// Per-thread disjoint output slice.
	b.MovA(isa.R(25), out)
	b.MovI(isa.R(24), 64*8)
	b.Mul(isa.R(24), isa.R(24), asm.RegTID)
	b.Add(isa.R(25), isa.R(25), isa.R(24)) // r25 = &out[tid*64]

	// Loop counter in r26 (kept clear of scratch registers).
	iters := int64(3 + rng.Intn(6))
	b.MovI(isa.R(26), iters)
	loop := b.NewLabel("loop")
	b.Bind(loop)

	body := 8 + rng.Intn(16)
	for i := 0; i < body; i++ {
		kind := rng.Intn(10)
		if scalarOnly && (kind == 7 || kind == 9) {
			kind = rng.Intn(7)
		}
		switch kind {
		case 0, 1, 2: // scalar ALU
			ops := []func(isa.Reg, isa.Reg, isa.Reg){b.Add, b.Sub, b.And, b.Or, b.Xor}
			ops[rng.Intn(len(ops))](rI(), rI(), rI())
		case 3: // immediates
			b.AddI(rI(), rI(), int64(rng.Intn(100)-50))
		case 4: // scalar load from the shared read-only array
			b.MovA(isa.R(23), arr+uint64(rng.Intn(n))*8)
			b.Ld(rI(), isa.R(23), 0)
		case 5: // scalar store into the private slice
			b.St(rI(), isa.R(25), int64(rng.Intn(32))*8)
		case 6: // fp chain
			b.CvtIF(rF(), rI())
			b.FAdd(rF(), rF(), rF())
		case 7: // vector block with a safe VL
			b.MovI(isa.R(22), int64(1+rng.Intn(16)))
			b.SetVL(isa.R(21), isa.R(22))
			b.MovA(isa.R(23), arr)
			b.VLd(rV(), isa.R(23))
			b.VAddS(rV(), rV(), rI())
			b.VRedSum(rI(), rV())
		case 8: // forward branch over one instruction
			skip := b.NewLabel("skip")
			b.Beq(rI(), rI(), skip)
			b.AddI(rI(), rI(), 1)
			b.Bind(skip)
		case 9: // vector store into the private slice (VL <= 32 words)
			b.MovI(isa.R(22), int64(1+rng.Intn(8)))
			b.SetVL(isa.R(21), isa.R(22))
			b.VIota(rV())
			b.VSt(rV(), isa.R(25))
		}
	}
	if threads > 1 && rng.Intn(2) == 0 {
		b.Bar()
	}
	b.SubI(isa.R(26), isa.R(26), 1)
	b.Bne(isa.R(26), asm.RegZero, loop)
	b.Halt()
	return b.MustAssemble()
}

// snapshot captures the architectural state that must match.
type archState struct {
	ints [32]uint64
	fps  [32]float64
	mem  []uint64
}

func capture(v *vm.VM, tid int, base uint64, words int) archState {
	var s archState
	th := v.Thread(tid)
	s.ints = th.IntRegs
	s.fps = th.FPRegs
	s.mem = make([]uint64, words)
	for i := 0; i < words; i++ {
		s.mem[i] = v.Mem.MustRead(base + uint64(i)*8)
	}
	return s
}

func TestTimedMachineMatchesFunctionalSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	configs := []func() Config{
		func() Config { return Base(8) },
		func() Config { return Base(2) },
		func() Config { return V2CMP() },
		func() Config { return V4CMT() },
	}
	for trial := 0; trial < 25; trial++ {
		cfgFn := configs[trial%len(configs)]
		cfg := cfgFn()
		prog := genProgram(rng, cfg.NumThreads)
		outAddr := prog.Symbol("out")
		words := 64 * cfg.NumThreads

		// Reference: pure functional execution with matching partitioning.
		ref, err := vm.New(prog, cfg.NumThreads)
		if err != nil {
			t.Fatal(err)
		}
		ref.Partitions = cfg.InitialPartitions
		if err := ref.RunFunctional(0); err != nil {
			t.Fatalf("trial %d: functional run: %v", trial, err)
		}

		// Timed machine.
		m, err := NewMachine(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("trial %d (%s): timed run: %v", trial, cfg.Name, err)
		}

		for tid := 0; tid < cfg.NumThreads; tid++ {
			want := capture(ref, tid, outAddr, words)
			got := capture(m.VM(), tid, outAddr, words)
			if want.ints != got.ints {
				t.Fatalf("trial %d (%s) thread %d: integer registers diverge\nwant %v\ngot  %v",
					trial, cfg.Name, tid, want.ints, got.ints)
			}
			if want.fps != got.fps {
				t.Fatalf("trial %d (%s) thread %d: fp registers diverge", trial, cfg.Name, tid)
			}
			for i := range want.mem {
				if want.mem[i] != got.mem[i] {
					t.Fatalf("trial %d (%s): out[%d] = %d, want %d",
						trial, cfg.Name, i, got.mem[i], want.mem[i])
				}
			}
		}
	}
}

func TestLaneAndCMTMachinesMatchFunctionalSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	configs := []Config{VLTScalar(4), VLTScalar(8), CMT(4), CMT(2)}
	for trial := 0; trial < 16; trial++ {
		cfg := configs[trial%len(configs)]
		prog := genScalarProgram(rng, cfg.NumThreads)
		outAddr := prog.Symbol("out")
		words := 64 * cfg.NumThreads

		ref, err := vm.New(prog, cfg.NumThreads)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.RunFunctional(0); err != nil {
			t.Fatalf("trial %d: functional run: %v", trial, err)
		}
		m, err := NewMachine(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("trial %d (%s, %d threads): timed run: %v",
				trial, cfg.Name, cfg.NumThreads, err)
		}
		for tid := 0; tid < cfg.NumThreads; tid++ {
			want := capture(ref, tid, outAddr, words)
			got := capture(m.VM(), tid, outAddr, words)
			if want.ints != got.ints || want.fps != got.fps {
				t.Fatalf("trial %d (%s) thread %d: registers diverge", trial, cfg.Name, tid)
			}
			for i := range want.mem {
				if want.mem[i] != got.mem[i] {
					t.Fatalf("trial %d (%s): out[%d] = %d, want %d",
						trial, cfg.Name, i, got.mem[i], want.mem[i])
				}
			}
		}
	}
}

// TestDeterministicTiming: two identical runs produce identical cycle
// counts (the simulator has no hidden nondeterminism).
func TestDeterministicTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog1 := genProgram(rng, 2)
	rng = rand.New(rand.NewSource(7))
	prog2 := genProgram(rng, 2)
	r1, _ := runToEnd(t, V2CMP(), prog1)
	r2, _ := runToEnd(t, V2CMP(), prog2)
	if r1.Cycles != r2.Cycles || r1.Retired != r2.Retired {
		t.Errorf("nondeterministic timing: %d/%d vs %d/%d cycles/retired",
			r1.Cycles, r1.Retired, r2.Cycles, r2.Retired)
	}
}
