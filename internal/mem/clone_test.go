package mem

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for the cache hierarchy; clonecheck
// fails these tests when a field is added without one.

func TestCloneCoversCache(t *testing.T) {
	clonecheck.Check(t, &Cache{}, map[string]string{
		"sets":      "value copy",
		"assoc":     "value copy",
		"lineShift": "value copy",
		"tags":      "deep copy into an array drawn from the tag pool",
		"stamp":     "deep copy into an array drawn from the tag pool",
		"clock":     "value copy",
		"Hits":      "value copy",
		"Misses":    "value copy",
	})
}

func TestCloneCoversL2(t *testing.T) {
	clonecheck.Check(t, &L2{}, map[string]string{
		"cfg":        "value copy",
		"cache":      "deep copy",
		"free":       "deep copy (in-flight bank-port schedule)",
		"Reads":      "value copy",
		"Writes":     "value copy",
		"BankStalls": "value copy",
	})
}

func TestCloneCoversL1(t *testing.T) {
	clonecheck.Check(t, &L1{}, map[string]string{
		"cfg":      "value copy",
		"cache":    "deep copy",
		"l2":       "rebased onto the caller's cloned L2",
		"Accesses": "value copy",
		"MissTo2":  "value copy",
	})
}

func TestL2CloneIndependent(t *testing.T) {
	l2 := NewL2(DefaultL2Config())
	l2.Access(0, 0x40, false)
	c := l2.Clone()
	c.Access(1, 0x80, true)
	if l2.Reads != 1 || l2.Writes != 0 {
		t.Errorf("clone access reached the parent: reads=%d writes=%d", l2.Reads, l2.Writes)
	}
	if c.Reads != 1 || c.Writes != 1 {
		t.Errorf("clone lost the parent's history: reads=%d writes=%d", c.Reads, c.Writes)
	}
}
