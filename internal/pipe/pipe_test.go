package pipe

import (
	"testing"
	"testing/quick"

	"vlt/internal/isa"
)

func quickCheck(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 100})
}

func TestUopReadiness(t *testing.T) {
	var a Arena
	id1, p1 := a.New(0, 0)
	id2, p2 := a.New(0, 0)
	p1.DoneCycle, p2.DoneCycle = 10, 20
	_, u := a.New(0, 0)
	u.Producers.Add(id1)
	u.Producers.Add(id2)
	if r := a.ReadyCycle(u, NeverDone); r != 20 {
		t.Errorf("ReadyCycle = %d, want the slowest producer's completion 20", r)
	}
	if r := a.ReadyCycle(u, 15); r <= 15 {
		t.Errorf("ReadyCycle(15) = %d, want a cycle past the bound", r)
	}
	if r := a.ReadyCycle(u, 20); r != 20 {
		t.Errorf("ReadyCycle(20) = %d, want 20", r)
	}
	p2.DoneCycle = NeverDone
	if r := a.ReadyCycle(u, 1<<62); r != NeverDone {
		t.Errorf("ReadyCycle = %d with an unresolved producer, want NeverDone", r)
	}
	if u.DoneBy(1 << 62) {
		t.Error("NeverDone uop reported done")
	}
}

func TestUopNoProducersAlwaysReady(t *testing.T) {
	var a Arena
	_, u := a.New(0, 0)
	if r := a.ReadyCycle(u, 0); r != 0 {
		t.Errorf("uop with no producers ready at %d, want 0", r)
	}
}

func TestUopRetireCycle(t *testing.T) {
	u := &Uop{DoneCycle: NeverDone, CommitCycle: NeverDone}
	if r := u.RetireCycle(); r != NeverDone {
		t.Errorf("RetireCycle = %d with neither cycle known, want NeverDone", r)
	}
	u.CommitCycle = 7 // early commit
	if r := u.RetireCycle(); r != 7 {
		t.Errorf("RetireCycle = %d, want the commit cycle 7", r)
	}
	u.DoneCycle = 5
	if r := u.RetireCycle(); r != 5 {
		t.Errorf("RetireCycle = %d, want the earlier completion 5", r)
	}
}

// TestEdgeCapacity walks every op and checks the producers a uop of it
// can collect against its two inline edge lists. A vector uop collects
// its scalar sources, VL included, into ScalarProducers (the scalar
// unit) and its vector sources into Producers (the VCL); any other uop
// collects its scalar sources into Producers. The ISA does not fix a
// read slot's register class (vfma.vs reads a scalar Rb), so every
// operand field takes each class in turn. The front end's and the VCL's
// register buffers are MaxSrcs long too, so destinations must fit as
// well. An op with more sources fails here, not past an array at run
// time.
func TestEdgeCapacity(t *testing.T) {
	var e Edges
	capacity := len(e.ids)
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		info := op.Info()
		if info.Name == "" {
			continue
		}
		scalars, vectors, dests := 0, 0, 0
		for mask := 0; mask < 16; mask++ {
			reg := func(bit int) isa.Reg {
				if mask&(1<<bit) != 0 {
					return isa.V(bit + 1)
				}
				return isa.R(bit + 1)
			}
			in := isa.Instruction{Op: op, Rd: reg(0), Ra: reg(1), Rb: reg(2), Rc: reg(3)}
			s, v := 0, 0
			for _, r := range in.AppendSrcs(nil) {
				if r.IsVec() {
					v++
				} else {
					s++
				}
			}
			scalars, vectors = max(scalars, s), max(vectors, v)
			dests = max(dests, len(in.AppendDests(nil)))
		}
		if !info.Vector {
			vectors = 0 // no stage collects a scalar op's vector sources
		}
		if scalars > capacity || vectors > capacity || dests > MaxSrcs {
			t.Errorf("%s: up to %d scalar and %d vector sources and %d destinations; the edge lists hold %d, the register buffers %d",
				op, scalars, vectors, dests, capacity, MaxSrcs)
		}
	}
}

func TestBimodalLearnsLoopBranch(t *testing.T) {
	b := NewBimodal(64)
	// A loop back-edge taken 100 times: after warm-up, always correct.
	wrong := 0
	for i := 0; i < 100; i++ {
		if !b.Predict(7, true) {
			wrong++
		}
	}
	if wrong > 2 {
		t.Errorf("loop branch mispredicted %d times, want <= 2", wrong)
	}
	// Loop exit: one mispredict.
	if b.Predict(7, false) {
		t.Error("loop exit should mispredict")
	}
}

func TestBimodalAlternatingIsHard(t *testing.T) {
	b := NewBimodal(64)
	wrong := 0
	taken := false
	for i := 0; i < 100; i++ {
		if !b.Predict(3, taken) {
			wrong++
		}
		taken = !taken
	}
	if wrong < 40 {
		t.Errorf("alternating branch should mispredict often, got %d/100", wrong)
	}
	if b.MispredictRate() <= 0 {
		t.Error("mispredict rate should be positive")
	}
}

func TestBimodalSizing(t *testing.T) {
	b := NewBimodal(1) // rounds up to minimum 16
	if len(b.table) != 16 {
		t.Errorf("table size %d, want 16", len(b.table))
	}
	b2 := NewBimodal(100)
	if len(b2.table) != 128 {
		t.Errorf("table size %d, want 128", len(b2.table))
	}
}

func TestBimodalIndependentPCs(t *testing.T) {
	b := NewBimodal(256)
	for i := 0; i < 10; i++ {
		b.Predict(1, true)
		b.Predict(2, false)
	}
	if !b.Predict(1, true) {
		t.Error("pc 1 should predict taken")
	}
	if !b.Predict(2, false) {
		t.Error("pc 2 should predict not-taken")
	}
}

func TestBimodalRatesBoundedQuick(t *testing.T) {
	// Property: for arbitrary outcome sequences the predictor never
	// panics and its mispredict rate stays within [0, 1].
	f := func(pcs []uint16, outcomes []bool) bool {
		b := NewBimodal(128)
		n := len(pcs)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			b.Predict(int(pcs[i]), outcomes[i])
		}
		r := b.MispredictRate()
		return r >= 0 && r <= 1
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}
