package vlt

import (
	"reflect"
	"testing"
)

// TestParallelMatchesSerial is the engine's differential regression: the
// shared multi-slot test engine must produce results identical to a
// one-slot engine, which simulates one cell at a time, for every figure,
// table and extension study. Any data race or cross-run state leak in
// the simulator would show up here (and under -race).
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	serial := NewEngine(1)
	parallel := testEngine
	if !serial.Serial() || parallel.Serial() {
		t.Fatalf("NewEngine mode selection broken: serial=%v parallel=%v",
			serial.Serial(), parallel.Serial())
	}
	want, err := serial.CollectAll(1)
	if err != nil {
		t.Fatal(err)
	}
	// The one-slot engine starts empty, so its sweep proves the figures
	// share cells (each workload's base-machine run is requested by
	// Figures 1, 3, 4, 5 and Table 4 alike): 127 requests, 78 simulated.
	if st := serial.Stats(); st.Submitted != 127 || st.Unique != 78 || st.Hits != st.Submitted-st.Unique {
		t.Errorf("one-slot sweep stats %+v, want 127 submitted, 78 unique, the rest hits", st)
	}
	got, err := parallel.CollectAll(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmp := range []struct {
		name      string
		got, want any
	}{
		{"table4", got.Table4, want.Table4},
		{"figure1", got.Figure1, want.Figure1},
		{"figure3", got.Figure3, want.Figure3},
		{"figure4", got.Figure4, want.Figure4},
		{"figure5", got.Figure5, want.Figure5},
		{"figure6", got.Figure6, want.Figure6},
		{"extension16Lanes", got.Extension16Lanes, want.Extension16Lanes},
		{"extensionPhaseSwitching", got.ExtensionPhaseSwtch, want.ExtensionPhaseSwtch},
	} {
		if !reflect.DeepEqual(cmp.got, cmp.want) {
			t.Errorf("%s: parallel engine diverges from one-slot engine\nparallel: %+v\nserial:   %+v",
				cmp.name, cmp.got, cmp.want)
		}
	}
}

// TestEngineDedup checks the memoization contract on the shared test
// engine: duplicate (workload, config, options) cells are simulated
// exactly once per engine, so a repeated figure is all memo hits. That
// the figures share cells with each other is asserted on a fresh engine
// in TestParallelMatchesSerial.
func TestEngineDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	eng := testEngine
	if _, err := eng.Figure3(1); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if _, err := eng.Figure3(1); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Unique+st.Hits != st.Submitted {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if n, hits := st.Submitted-before.Submitted, st.Hits-before.Hits; n == 0 || hits != n {
		t.Errorf("repeating Figure3: %d of %d submissions were memo hits, want all", hits, n)
	}
}

// TestFingerprintCoversOptions guards the memo key against an Options
// field that changes a simulation but is left out of fingerprint. Both
// sides of TestParallelMatchesSerial memoize by the same key, so such a
// field would alias distinct cells on both and agree anyway. Every
// field, set away from its default, must change the key on the base
// machine and on a VLT machine.
func TestFingerprintCoversOptions(t *testing.T) {
	base := Options{Scale: 1}
	for _, m := range []Machine{MachineBase, MachineV4CMT} {
		want, err := fingerprint("mxm", m, base)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
			opt := base
			f := reflect.ValueOf(&opt).Elem().Field(i)
			name := reflect.TypeOf(base).Field(i).Name
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				f.SetInt(f.Int() + 2)
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(f.Uint() + 2)
			default:
				t.Fatalf("Options.%s has kind %s; give this test a non-default value for it", name, f.Kind())
			}
			got, err := fingerprint("mxm", m, opt)
			if err != nil {
				t.Fatalf("%s: Options.%s=%v: %v", m, name, f.Interface(), err)
			}
			if got == want {
				t.Errorf("%s: Options.%s=%v leaves the cell key unchanged", m, name, f.Interface())
			}
		}
	}
}

// TestEngineAliasedCells: option spellings that resolve to the same
// machine configuration (Lanes: 0 defaults to 8 on the base machine)
// must coalesce onto one cached cell.
func TestEngineAliasedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	eng := NewEngine(2)
	a := eng.submit("bt", MachineBase, Options{Scale: 1})
	b := eng.submit("bt", MachineBase, Options{Scale: 1, Lanes: 8})
	ra, _, err := a.wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, _, err := b.wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Unique != 1 || st.Hits != 1 {
		t.Errorf("aliased options did not coalesce: %+v", st)
	}
	if ra.Cycles != rb.Cycles {
		t.Errorf("aliased cells disagree: %d vs %d cycles", ra.Cycles, rb.Cycles)
	}
}

// TestEngineErrorPropagation: a bad cell surfaces its error through the
// drivers, on one slot and on several.
func TestEngineErrorPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		eng := NewEngine(jobs)
		f := eng.submit("nosuch", MachineBase, Options{Scale: 1})
		if _, _, err := f.wait(); err == nil {
			t.Errorf("jobs=%d: unknown workload did not error", jobs)
		}
		g := eng.submit("mxm", Machine("bogus"), Options{Scale: 1})
		if _, _, err := g.wait(); err == nil {
			t.Errorf("jobs=%d: unknown machine did not error", jobs)
		}
	}
}

// TestEngineProgress: the progress callback sees every unique cell
// complete, on one slot and on several.
func TestEngineProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	for _, jobs := range []int{1, 2} {
		eng := NewEngine(jobs)
		ch := make(chan [2]int, 64)
		eng.SetProgress(func(done, total int) { ch <- [2]int{done, total} })
		if _, err := eng.Figure6(1); err != nil {
			t.Fatal(err)
		}
		close(ch)
		// Concurrent callbacks may be observed out of order; check the
		// update count and the high-water marks instead of the last value.
		var maxDone, maxTotal, n int
		for p := range ch {
			maxDone = max(maxDone, p[0])
			maxTotal = max(maxTotal, p[1])
			n++
		}
		// Figure 6: 3 scalar workloads x 2 machines = 6 unique cells.
		if n != 6 || maxDone != 6 || maxTotal != 6 {
			t.Errorf("jobs=%d: progress saw %d updates, max %d/%d; want 6 updates reaching 6/6", jobs, n, maxDone, maxTotal)
		}
	}
}
