package guard

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for the guard state carried across a
// machine fork; clonecheck fails these tests when a field is added
// without one.

func TestCloneCoversWatchdog(t *testing.T) {
	clonecheck.Check(t, &Watchdog{}, map[string]string{
		"limit":       "value copy",
		"lastRetired": "value copy (stall-window position carries over)",
		"lastAdvance": "value copy",
	})
}

func TestCloneCoversRing(t *testing.T) {
	clonecheck.Check(t, &Ring{}, map[string]string{
		"buf":  "deep copy (Retired entries hold only scalars)",
		"next": "value copy",
		"full": "value copy",
	})
}

func TestWatchdogCloneIndependent(t *testing.T) {
	w := NewWatchdog(10)
	w.Observe(0, 5)
	c := w.Clone()
	// Starve the clone past its limit; the parent must not trip.
	if !c.Observe(11, 5) {
		t.Fatal("starved clone did not trip")
	}
	if w.Observe(1, 6) {
		t.Error("parent tripped after clone starvation")
	}
}
