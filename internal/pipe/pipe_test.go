package pipe

import (
	"testing"
	"testing/quick"

	"vlt/internal/isa"
)

func quickCheck(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 100})
}

// TestUopReadiness pins Depend and Complete: a consumer's ReadyCycle is
// NeverDone until its last producer completes and then the latest
// completion, whatever order the producers complete in and whether
// they completed before it arrived; a parked consumer is woken once.
func TestUopReadiness(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		var a Arena
		var p [2]UopID
		p[0], _ = a.New(0, 0)
		p[1], _ = a.New(0, 0)
		id, u := a.New(0, 0)
		a.Depend(id, p[0])
		a.Depend(id, p[1])
		if !a.Park(id, 0, 42) || !u.Parked() {
			t.Fatal("Park refused a consumer with unknown producers")
		}
		done := [2]uint64{20, 10}
		a.Complete(p[order[0]], done[order[0]])
		if r := u.ReadyCycle(); r != NeverDone {
			t.Errorf("order %v: ReadyCycle = %d with a producer pending, want NeverDone", order, r)
		}
		if len(a.woken[0]) != 0 {
			t.Errorf("order %v: woken %v before the last producer completed", order, a.woken[0])
		}
		a.Complete(p[order[1]], done[order[1]])
		if r := u.ReadyCycle(); r != 20 {
			t.Errorf("order %v: ReadyCycle = %d, want the slowest producer's completion 20", order, r)
		}
		var took []UopID
		take := func(w UopID, key uint64) {
			if key != 42 {
				t.Errorf("order %v: woke %d with key %d, want the parked key 42", order, w, key)
			}
			took = append(took, w)
		}
		a.Wake(0, take)
		a.Wake(0, take)
		if len(took) != 1 || took[0] != id || u.Parked() {
			t.Errorf("order %v: Wake handed %v (parked=%t), want [%d] once", order, took, u.Parked(), id)
		}
	}

	// A consumer that arrives after its producer completed reads the
	// completion at once and never waits.
	var a Arena
	pid, _ := a.New(0, 0)
	a.Complete(pid, 7)
	id, u := a.New(0, 0)
	a.Depend(id, pid)
	if a.Park(id, 0, 0) || u.ReadyCycle() != 7 {
		t.Errorf("late consumer parked=%t ReadyCycle=%d, want ready at 7", u.parked, u.ReadyCycle())
	}
	if u.DoneBy(1 << 62) {
		t.Error("NeverDone uop reported done")
	}

	// DoneCycle is written once.
	defer func() {
		if recover() == nil {
			t.Error("a second Complete did not panic")
		}
	}()
	a.Complete(pid, 9)
}

// TestWakeByOwner: a woken uop waits on the list of the owner that
// parked it, so a unit takes back its own uops and no others.
func TestWakeByOwner(t *testing.T) {
	var a Arena
	pid, _ := a.New(0, 0)
	var ids [3]UopID
	for i := range ids {
		ids[i], _ = a.New(0, 0)
		a.Depend(ids[i], pid)
		a.Park(ids[i], uint8(i%2), uint64(i))
	}
	a.Complete(pid, 3)
	var got []uint64
	a.Wake(1, func(_ UopID, key uint64) { got = append(got, key) })
	if len(got) != 1 || got[0] != 1 || len(a.woken[0]) != 2 || len(a.woken[1]) != 0 {
		t.Errorf("owner 1 woke keys %v, owner 0 holds %v; want [1] and two", got, a.woken[0])
	}
}

func TestUopNoProducersAlwaysReady(t *testing.T) {
	var a Arena
	_, u := a.New(0, 0)
	if r := u.ReadyCycle(); r != 0 {
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
