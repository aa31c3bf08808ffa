package pipe

import (
	"testing"

	"vlt/internal/asm"
	"vlt/internal/clonecheck"
	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/vm"
)

// gateUop returns a uop of a done at cycle done and retained once, as a
// gating handle holds it.
func gateUop(a *Arena, done uint64) UopID {
	id, u := a.New(0, 0)
	u.Dyn = vm.Dyn{PC: 7, Inst: &isa.Instruction{Op: isa.OpBar}}
	u.DoneCycle = done
	a.Retain(id)
	return id
}

func TestGateOrder(t *testing.T) {
	type want struct{ open, branch bool }
	var a Arena
	check := func(t *testing.T, f *Frontend, now uint64, penalty int, w want) {
		t.Helper()
		if open, branch := f.Gate(&a, now, penalty); open != w.open || branch != w.branch {
			t.Errorf("Gate(%d) = open %t branch %t, want %t %t", now, open, branch, w.open, w.branch)
		}
	}

	t.Run("stall before mispredict before barrier", func(t *testing.T) {
		br, bar := gateUop(&a, 10), gateUop(&a, 20)
		f := &Frontend{stallUntil: 5, pendingBranch: br, blockedUop: bar}
		check(t, f, 4, 3, want{})             // I-cache stall: no branch charge
		check(t, f, 5, 3, want{branch: true}) // branch unresolved
		if f.pendingBranch != br || a.At(br).refs != 1 {
			t.Fatal("an unresolved branch must stay pending")
		}
		// Resolution at 10 redirects fetch 3 cycles later.
		check(t, f, 10, 3, want{branch: true})
		if f.pendingBranch != 0 || a.At(br).refs != 0 || f.stallUntil != 13 {
			t.Fatalf("resolved branch: pending=%v refs=%d stallUntil=%d, want 0 0 13",
				f.pendingBranch, a.At(br).refs, f.stallUntil)
		}
		check(t, f, 12, 3, want{})
		check(t, f, 13, 3, want{}) // the barrier holds, uncharged
		check(t, f, 20, 3, want{open: true})
		if f.blockedUop != 0 || a.At(bar).refs != 0 {
			t.Fatal("a released barrier must drop its gate")
		}
	})

	t.Run("zero penalty redirects the same cycle", func(t *testing.T) {
		f := &Frontend{pendingBranch: gateUop(&a, 10)}
		check(t, f, 10, 0, want{open: true})
	})

	t.Run("halted never opens", func(t *testing.T) {
		f := &Frontend{haltFetched: true}
		check(t, f, 100, 3, want{})
	})
}

func TestEventAt(t *testing.T) {
	for _, c := range []struct {
		name          string
		ev, now, done uint64
		want          uint64
	}{
		{"never done", 50, 10, NeverDone, 50},
		{"past clamps to next cycle", 50, 10, 4, 11},
		{"now clamps to next cycle", 50, 10, 10, 11},
		{"future", 50, 10, 30, 30},
		{"beyond the horizon", 50, 10, 70, 50},
	} {
		if got := EventAt(c.ev, c.now, c.done); got != c.want {
			t.Errorf("%s: EventAt(%d, %d, %d) = %d, want %d", c.name, c.ev, c.now, c.done, got, c.want)
		}
	}
}

func TestFrontendEventMirrorsGate(t *testing.T) {
	var a Arena
	for _, c := range []struct {
		name string
		f    Frontend
		ev   uint64
		open bool
	}{
		{"halted", Frontend{haltFetched: true, stallUntil: 30}, 50, false},
		{"stall", Frontend{stallUntil: 30, pendingBranch: gateUop(&a, 20)}, 30, false},
		{"branch", Frontend{pendingBranch: gateUop(&a, 20), blockedUop: gateUop(&a, 25)}, 20, false},
		{"barrier awaiting release", Frontend{blockedUop: gateUop(&a, NeverDone)}, 50, false},
		{"open", Frontend{stallUntil: 10}, 50, true},
	} {
		if ev, open := c.f.Event(&a, 50, 10); ev != c.ev || open != c.open {
			t.Errorf("%s: Event = %d %t, want %d %t", c.name, ev, open, c.ev, c.open)
		}
	}
}

func TestFetchGroupEnds(t *testing.T) {
	b := asm.NewBuilder("group")
	next, taken := b.NewLabel("next"), b.NewLabel("taken")
	b.MovI(isa.R(1), 0)                 // plain: the group goes on
	b.Bne(isa.R(1), asm.RegZero, taken) // not taken, predicted: goes on
	b.J(next)                           // taken: ends the group
	b.Bind(next)
	b.Bar()                             // holds fetch
	b.VltCfg(2)                         // holds fetch
	b.MovI(isa.R(1), 1)                 // plain
	b.Bne(isa.R(1), asm.RegZero, taken) // taken, predicted not taken: mispredict
	b.Bind(taken)
	b.Halt()
	prog, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	ic := mem.NewL1(mem.DefaultL1Config(), mem.NewL2(mem.DefaultL2Config()))
	pred := NewBimodal(16)
	var f Frontend
	var a Arena

	// The first fetch misses: fetch stalls until the line arrives plus
	// the caller's extra latency.
	id, _, err := f.Fetch(&a, 0, m, 0, ic, 4, pred)
	if id != 0 || err != nil {
		t.Fatalf("cold fetch = %v, %v; want an I-cache miss", id, err)
	}
	if f.stallUntil <= 1+4 {
		t.Fatalf("miss stalls until %d, want past the L2 latency", f.stallUntil)
	}

	now := f.stallUntil
	for i, w := range []struct {
		op   isa.Op
		more bool
		gate func() bool
	}{
		{isa.OpMovI, true, nil},
		{isa.OpBne, true, nil},
		{isa.OpJ, false, nil},
		{isa.OpBar, false, func() bool { return f.blockedUop != 0 }},
		{isa.OpVltCfg, false, func() bool { return f.blockedUop != 0 && a.At(f.blockedUop).Dyn.Inst.Op == isa.OpVltCfg }},
		{isa.OpMovI, true, nil},
		{isa.OpBne, false, func() bool { return f.pendingBranch != 0 && a.At(f.pendingBranch).Mispredicted }},
		{isa.OpHalt, false, f.Halted},
	} {
		id, more, err := f.Fetch(&a, now, m, 0, ic, 4, pred)
		for id == 0 && err == nil { // a new line: wait it out
			now = f.stallUntil
			id, more, err = f.Fetch(&a, now, m, 0, ic, 4, pred)
		}
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if u := a.At(id); u.Dyn.Inst.Op != w.op || more != w.more {
			t.Errorf("fetch %d: %s more=%t, want %s more=%t", i, u.Dyn.Inst.Op, more, w.op, w.more)
		}
		if w.gate != nil && !w.gate() {
			t.Errorf("fetch %d (%s): gate not set", i, w.op)
		}
		now++
	}
}

func TestLastWriterTracking(t *testing.T) {
	var f Frontend
	var a Arena
	uop := func(in isa.Instruction) UopID {
		id, u := a.New(0, 0)
		u.Dyn.Inst = &in
		return id
	}
	w := uop(isa.Instruction{Op: isa.OpMovI, Rd: isa.R(1)})
	vw := uop(isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)})
	f.Record(&a, w)
	f.Record(&a, vw)
	if f.lastWriter[isa.R(1)] != w || f.lastWriter[isa.V(1)] != 0 {
		t.Fatal("Record must track scalar destinations only")
	}
	wu := a.At(w)

	// Each call captures a fresh reader's producers.
	producers := func(now uint64) []UopID {
		r := uop(isa.Instruction{Op: isa.OpAdd, Rd: isa.R(2), Ra: isa.R(1), Rb: isa.R(1)})
		f.Producers(&a, r, now)
		return a.At(r).Producers.IDs()
	}
	if p := producers(5); len(p) != 2 || p[0] != w || wu.refs != 3 {
		t.Fatalf("producers %v (refs %d), want w twice and three references", p, wu.refs)
	}
	// A vector reader's scalar sources are its ScalarProducers, which the
	// vector control logic reads; its Producers stay for vector sources.
	vid := uop(isa.Instruction{Op: isa.OpVLdS, Rd: isa.V(2), Ra: isa.R(1), Rb: isa.R(3)})
	f.Producers(&a, vid, 5)
	vr := a.At(vid)
	if sp := vr.ScalarProducers.IDs(); len(sp) != 1 || sp[0] != w || len(vr.Producers.IDs()) != 0 {
		t.Fatalf("vector reader: scalar producers %v, producers %v; want [w] and none", sp, vr.Producers.IDs())
	}

	// An early-committed writer still in flight is a producer and stays
	// tracked at retirement; once done it is neither.
	wu.DoneCycle, wu.Retired = 10, true
	if p := producers(9); len(p) != 2 {
		t.Errorf("retired writer done at 10 gave %d producers at 9, want 2", len(p))
	}
	f.Unpin(&a, w, 9)
	if f.lastWriter[isa.R(1)] != w {
		t.Fatal("Unpin dropped a writer whose result is still in flight")
	}
	if p := producers(10); len(p) != 0 {
		t.Errorf("retired, done writer gave %d producers, want 0", len(p))
	}
	refs := wu.refs
	f.Unpin(&a, w, 10)
	if f.lastWriter[isa.R(1)] != 0 || wu.refs != refs-1 {
		t.Error("Unpin must drop a done writer and its reference")
	}
}

func TestFrontendState(t *testing.T) {
	var a Arena
	f := &Frontend{haltFetched: true, pendingBranch: gateUop(&a, 5), blockedUop: gateUop(&a, 9), stallUntil: 12}
	if got, want := f.State(&a, 10), " halt-fetched branch-stalled@7 blocked-on-bar stalled-until-12"; got != want {
		t.Errorf("State = %q, want %q", got, want)
	}
	if got := (&Frontend{stallUntil: 10}).State(&a, 10); got != "" {
		t.Errorf("open front end State = %q, want empty", got)
	}
}

func TestCloneCoversFrontend(t *testing.T) {
	clonecheck.Check(t, &Frontend{}, map[string]string{
		"haltFetched":   "value copy",
		"pendingBranch": "value copy: the handle names the same ROB entry in the cloned arena",
		"blockedUop":    "value copy: the handle names the same ROB entry in the cloned arena",
		"stallUntil":    "value copy",
		"curLine":       "value copy",
		"lastWriter":    "value copy (array of handles)",
	})
}

// TestFrontendCloneAliases pins that a front end forks by plain copy: the
// copy keeps its gate and last writer as the same handle, and resolving
// the gate in the copy against a cloned arena leaves the parent's gate
// and the parent arena's reference count as they were.
func TestFrontendCloneAliases(t *testing.T) {
	var a Arena
	br := gateUop(&a, 2)
	a.Retain(br)
	f := Frontend{pendingBranch: br, stallUntil: 1, curLine: 9}
	f.lastWriter[isa.R(1)] = br

	n, na := f, a.Clone()
	if n.pendingBranch != br || n.lastWriter[isa.R(1)] != br || n.curLine != 9 {
		t.Fatalf("copy = %+v, want the gate and the last writer on handle %d", n, br)
	}
	if open, _ := n.Gate(na, 3, 0); !open || n.pendingBranch != 0 || na.At(br).refs != 1 {
		t.Fatalf("copy's gate: open=%t pending=%d refs=%d, want open, 0, 1", open, n.pendingBranch, na.At(br).refs)
	}
	if f.pendingBranch != br || a.At(br).refs != 2 || f.stallUntil != 1 {
		t.Errorf("parent after the copy resolved: pending=%d refs=%d stallUntil=%d, want %d 2 1",
			f.pendingBranch, a.At(br).refs, f.stallUntil, br)
	}
}
