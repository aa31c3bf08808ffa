package vm

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for every struct VM.Clone copies, and
// for Dyn, which pipe.Arena.Clone copies by value inside each uop slot;
// clonecheck fails these tests when a field is added without one.

func TestCloneCoversVM(t *testing.T) {
	clonecheck.Check(t, &VM{}, map[string]string{
		"Prog":       "shared: immutable after assembly",
		"Mem":        "deep copy",
		"Partitions": "value copy",
		"Stats":      "value copy (counters and a value array)",
		"threads":    "deep copy (Thread holds only scalars and value arrays)",
		"code":       "shared: immutable decode of Prog",
	})
}

func TestCloneCoversThread(t *testing.T) {
	clonecheck.Check(t, &Thread{}, map[string]string{
		"ID":      "value copy",
		"PC":      "value copy",
		"Halted":  "value copy",
		"IntRegs": "value copy (array)",
		"FPRegs":  "value copy (array)",
		"VecRegs": "value copy (array)",
		"VL":      "value copy",
		"Region":  "value copy",
		"seq":     "value copy",
	})
}

func TestCloneCoversDyn(t *testing.T) {
	clonecheck.Check(t, &Dyn{}, map[string]string{
		"Thread":    "value copy",
		"Seq":       "value copy",
		"PC":        "value copy",
		"Inst":      "shared: points into the immutable decoded program",
		"Branch":    "value copy",
		"Taken":     "value copy",
		"NextPC":    "value copy",
		"VL":        "value copy",
		"EffAddrs":  "deep copy: pipe.Arena.Clone gives each slot its own array at the same capacity",
		"IsBarrier": "value copy",
		"IsHalt":    "value copy",
		"MarkID":    "value copy",
		"VltCfg":    "value copy",
		"Region":    "value copy",
	})
}

func TestCloneCoversOpStats(t *testing.T) {
	clonecheck.Check(t, &OpStats{}, map[string]string{
		"ScalarInstrs": "value copy",
		"VecInstrs":    "value copy",
		"VecElemOps":   "value copy",
		"VLHist":       "value copy (array)",
	})
}

func TestCloneCoversMemory(t *testing.T) {
	clonecheck.Check(t, &Memory{}, map[string]string{
		"pages":    "deep copy (page values copied)",
		"lastIdx":  "reset: pure lookup cache",
		"lastPage": "reset: pure lookup cache",
	})
}

func TestMemoryCloneIndependent(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1000, 7)
	c := m.Clone()
	c.WriteWord(0x1000, 9)
	c.WriteWord(1<<20, 3) // new page in the clone only
	if v, _ := m.ReadWord(0x1000); v != 7 {
		t.Errorf("clone write reached the parent: %d", v)
	}
	if m.PageCount() != 1 || c.PageCount() != 2 {
		t.Errorf("page maps shared: parent %d pages, clone %d", m.PageCount(), c.PageCount())
	}
}
