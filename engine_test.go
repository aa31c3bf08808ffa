package vlt

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestParallelMatchesSerial is the engine's differential regression: the
// shared multi-slot test engine must produce results identical to a
// one-slot engine, which simulates one cell at a time, for every
// catalogue entry: its dataset and its rendered text. Any data race or
// cross-run state leak in the simulator would show up here (and under
// -race).
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
	// The one-slot engine starts empty, so its sweep proves every entry
	// runs its driver once and the figures share cells (each workload's
	// base-machine run is requested by Figures 1, 3, 4, 5 and Table 4
	// alike): 127 requests, 78 simulated.
	if st := serial.Stats(); st.Submitted != 127 || st.Unique != 78 || st.Hits != st.Submitted-st.Unique {
		t.Errorf("one-slot sweep stats %+v, want 127 submitted, 78 unique, the rest hits", st)
	}
	got, err := parallel.CollectAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(catalogue) || len(want) != len(catalogue) {
		t.Fatalf("CollectAll returned %d (parallel) and %d (one-slot) entries, want %d", len(got), len(want), len(catalogue))
	}
	for i, x := range catalogue {
		g, w := got[i], want[i]
		if g.Name != x.Name || w.Name != x.Name {
			t.Errorf("entry %d named %q (parallel), %q (one-slot), want %q", i, g.Name, w.Name, x.Name)
		}
		if !reflect.DeepEqual(g.Data, w.Data) {
			t.Errorf("%s: parallel engine's data diverges from the one-slot engine's\nparallel: %+v\nserial:   %+v",
				x.Name, g.Data, w.Data)
		}
		if g.Text != w.Text || g.Text == "" {
			t.Errorf("%s: parallel engine renders\n%s\none-slot engine renders\n%s", x.Name, g.Text, w.Text)
		}
	}
}

// TestDriverErrorsNameTheCell: when one cell fails, every catalogue entry
// that needs it fails with an error naming the entry, the workload and
// the machine, and every other entry still succeeds. The source is a fake
// (every other cell takes one cycle), so nothing is simulated.
func TestDriverErrorsNameTheCell(t *testing.T) {
	eng := NewEngineFrom(func(w string, m Machine, opt Options) (Result, error) {
		if w == "trfd" && m == MachineV4CMP {
			return Result{}, errors.New("injected failure")
		}
		return Result{Workload: w, Machine: m, Cycles: 1}, nil
	})
	needs := map[string]bool{"figure3": true, "figure4": true, "figure5": true}
	for _, x := range Experiments() {
		_, _, err := x.Run(eng, 1)
		switch {
		case !needs[x.Name] && err != nil:
			t.Errorf("%s does not need trfd on V4-CMP but failed: %v", x.Name, err)
		case needs[x.Name] && err == nil:
			t.Errorf("%s needs trfd on V4-CMP but succeeded", x.Name)
		case err != nil:
			for _, want := range []string{x.Name, "trfd", string(MachineV4CMP), "injected failure"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not name %q", x.Name, err, want)
				}
			}
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

// TestCellKeyClasses holds the cell key to the machine it names: over
// every machine × workload × lanes 0–8, 12, 16 × threads 0–8 × scale
// 0–2 × lane reclaim on and off, two accepted cells share a CellKey
// exactly when they share a reference string built from the whole
// resolved core.Config. The key hashes only the request's resolved
// fields, so a preset field that starts to vary with the request
// without entering the key fails here.
func TestCellKeyClasses(t *testing.T) {
	lanes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16}
	keyRef := map[string]string{} // cell key -> reference string
	refKey := map[string]string{} // reference string -> cell key
	cells := 0
	for _, m := range Machines() {
		for _, w := range Workloads() {
			for _, l := range lanes {
				for threads := 0; threads <= 8; threads++ {
					for scale := 0; scale <= 2; scale++ {
						for _, noReclaim := range []bool{false, true} {
							opt := Options{Lanes: l, Threads: threads, Scale: scale, NoLaneReclaim: noReclaim}
							spec, err := resolveCell(w, m, opt)
							if err != nil {
								continue
							}
							cells++
							ref := fmt.Sprintf("w=%s|cfg=%+v|threads=%d|scale=%d|noReclaim=%t",
								w, spec.cfg, spec.threads, max(scale, 1), noReclaim)
							key, err := CellKey(w, m, opt)
							if err != nil {
								t.Fatalf("%s/%s %+v: accepted cell has no key: %v", w, m, opt, err)
							}
							if r, ok := keyRef[key]; ok && r != ref {
								t.Fatalf("%s/%s %+v shares its key with a different machine:\n%s\n%s", w, m, opt, ref, r)
							}
							if k, ok := refKey[ref]; ok && k != key {
								t.Fatalf("%s/%s %+v: one machine under two keys:\n%s", w, m, opt, ref)
							}
							keyRef[key], refKey[ref] = ref, key
						}
					}
				}
			}
		}
	}
	t.Logf("%d accepted cells in %d key classes", cells, len(keyRef))
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
	ra, err := a.wait()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Unique != 1 || st.Hits != 1 {
		t.Errorf("aliased options did not coalesce: %+v", st)
	}
	if ra.res.Cycles != rb.res.Cycles {
		t.Errorf("aliased cells disagree: %d vs %d cycles", ra.res.Cycles, rb.res.Cycles)
	}
}

// TestEngineErrorPropagation: a bad cell surfaces its error through the
// drivers, on one slot and on several.
func TestEngineErrorPropagation(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		eng := NewEngine(jobs)
		f := eng.submit("nosuch", MachineBase, Options{Scale: 1})
		if _, err := f.wait(); err == nil {
			t.Errorf("jobs=%d: unknown workload did not error", jobs)
		}
		g := eng.submit("mxm", Machine("bogus"), Options{Scale: 1})
		if _, err := g.wait(); err == nil {
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
