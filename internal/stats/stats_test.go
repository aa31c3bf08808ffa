package stats

import (
	"reflect"
	"testing"
)

func TestCounterReadsLiveValue(t *testing.T) {
	r := New()
	var c uint64
	r.Counter("fetch.instrs", &c)
	c = 41
	c++
	if v, ok := r.Float("fetch.instrs"); !ok || v != 42 {
		t.Fatalf("Float = %v, %v; want 42, true", v, ok)
	}
	snap := r.Snapshot()
	if got := snap.Uint("fetch.instrs"); got != 42 {
		t.Fatalf("snapshot Uint = %d, want 42", got)
	}
}

func TestScopePrefixesNames(t *testing.T) {
	r := New()
	var a, b uint64
	su := r.Scope("su0")
	su.Counter("retired", &a)
	su.Scope("l1i").Counter("accesses", &b)
	want := []string{"su0.l1i.accesses", "su0.retired"}
	if got := r.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if !r.Has("su0.retired") || r.Has("retired") {
		t.Fatalf("Has misroutes scoped names")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := New()
	var c uint64
	r.Counter("x", &c)
	r.Counter("x", &c)
}

func TestSnapshotSortedAndTyped(t *testing.T) {
	r := New()
	var c uint64 = 7
	r.Counter("b.count", &c)
	r.Gauge("a.rate", func() float64 { return 0.25 })
	r.CounterFn("c.sum", func() uint64 { return 100 })
	snap := r.Snapshot()
	var names []string
	for _, v := range snap {
		names = append(names, v.Name)
	}
	want := []string{"a.rate", "b.count", "c.sum"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
	if v, _ := snap.Get("b.count"); !v.IsInt || v.Int != 7 {
		t.Fatalf("b.count = %+v, want integer 7", v)
	}
	if v, _ := snap.Get("a.rate"); v.IsInt || v.Float != 0.25 {
		t.Fatalf("a.rate = %+v, want float 0.25", v)
	}
	if got := snap.Map()["c.sum"]; got != 100 {
		t.Fatalf("Map[c.sum] = %v, want 100", got)
	}
	if s := snap.String(); s != "a.rate 0.25\nb.count 7\nc.sum 100\n" {
		t.Fatalf("String = %q", s)
	}
}

func TestHistogramExpandsNonZeroBuckets(t *testing.T) {
	r := New()
	h := []int64{0, 3, 0, 9}
	r.Histogram("vl_hist", func() []int64 { return h })
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2: %v", len(snap), snap)
	}
	if got := snap.Uint("vl_hist[01]"); got != 3 {
		t.Fatalf("vl_hist[01] = %d, want 3", got)
	}
	if got := snap.Uint("vl_hist[03]"); got != 9 {
		t.Fatalf("vl_hist[03] = %d, want 9", got)
	}
	// Histogram base name reads as the total.
	if v, ok := r.Float("vl_hist"); !ok || v != 12 {
		t.Fatalf("Float(vl_hist) = %v, %v; want 12", v, ok)
	}
}
