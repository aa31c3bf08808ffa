package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlt"
	"vlt/internal/api"
)

// countingServer is a fake-simulation server over a store at dir that
// counts its simulations. The verifier is real, so the invalid cells of
// the paper grid (vector workloads on scalar-only machines) are rejected
// before they could simulate.
func countingServer(t *testing.T, dir string) (*Server, *atomic.Int32) {
	t.Helper()
	s := newStoreServer(t, dir)
	sims := new(atomic.Int32)
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims.Add(1)
		return fakeResult(w, m, o), nil
	}
	return s, sims
}

// copyDir copies the flat directory src (a store) into a new temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestExperimentCellsShareTiers proves experiments are a fan-out over the
// cells in the tiers. After a sweep of the 78-cell paper grid, a fresh
// node over that store serves every grid-only experiment from disk with
// no simulation at all, and the swept node itself serves all eleven
// experiments with exactly the 33 simulations of the cells outside the
// grid (Figure 1 at 1/2/4 lanes for the seven workloads with vector code,
// the 16-lane study, the no-reclaim study), which then answer /v1/run
// from memory.
func TestExperimentCellsShareTiers(t *testing.T) {
	dir := t.TempDir()
	a, sims := countingServer(t, dir)
	_, lines, trailer := postSweep(t, a, api.SweepRequest{Workloads: vlt.Workloads(), Machines: machineNames()})
	if trailer == nil || len(lines) != 90 || trailer.Errors != 12 {
		t.Fatalf("grid sweep: %d lines, trailer %+v; want 90 lines, 12 invalid", len(lines), trailer)
	}
	if n := sims.Load(); n != 78 {
		t.Fatalf("grid sweep ran %d simulations, want 78", n)
	}

	t.Run("fresh node serves grid experiments from disk", func(t *testing.T) {
		b, bsims := countingServer(t, copyDir(t, dir))
		for _, name := range []string{"figure3", "figure4", "figure5", "figure6", "table4"} {
			rec := get(t, b, "/v1/experiment?name="+name)
			if rec.Code != http.StatusOK || rec.Header().Get("X-VLT-Cache") != "miss" {
				t.Fatalf("%s: status %d, X-VLT-Cache %q: %s", name, rec.Code, rec.Header().Get("X-VLT-Cache"), rec.Body)
			}
		}
		if n := bsims.Load(); n != 0 {
			t.Errorf("grid experiments on a node over the grid's store ran %d simulations, want 0", n)
		}
		if n := b.Registry().Snapshot().Uint("serve.flight.executed"); n != 0 {
			t.Errorf("serve.flight.executed = %d, want 0: every cell is a disk hit", n)
		}
	})

	t.Run("swept node simulates only non-grid cells", func(t *testing.T) {
		before := sims.Load()
		for _, e := range vlt.Experiments() {
			if rec := get(t, a, "/v1/experiment?name="+e.Name); rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", e.Name, rec.Code, rec.Body)
			}
		}
		if n := sims.Load() - before; n != 33 {
			t.Errorf("all eleven experiments on a swept node ran %d simulations, want 33", n)
		}
		rec := get(t, a, "/v1/run?workload=mxm&machine=base&lanes=1")
		if h := rec.Header().Get("X-VLT-Cache"); rec.Code != http.StatusOK || h != "hit" {
			t.Errorf("Figure 1's 1-lane cell: status %d, X-VLT-Cache %q; want a memory hit", rec.Code, h)
		}
	})
}

func machineNames() []string {
	var names []string
	for _, m := range vlt.Machines() {
		names = append(names, string(m))
	}
	return names
}

// TestExperimentsCannotStarveTheirCells: an experiment's coordinator
// holds neither a slot nor a pending entry, so concurrent experiments
// on the smallest server (one slot, one pending entry) all complete —
// their cells take turns at the bound instead of being shed behind
// coordinators that wait on them.
func TestExperimentsCannotStarveTheirCells(t *testing.T) {
	s := fakeServer(Config{Jobs: 1, MaxPending: 1})
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		time.Sleep(time.Millisecond) // keep several cells waiting at the bound
		return fakeResult(w, m, o), nil
	}
	names := []string{"figure3", "table4", "extphase"}
	codes := make([]int, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = get(t, s, "/v1/experiment?name="+name).Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", names[i], code)
		}
	}
}

// TestExperimentTimeoutKeepsCells: an experiment past its deadline
// answers 504, but the cells it admitted still complete into the cache,
// so the retry renders the experiment without simulating.
func TestExperimentTimeoutKeepsCells(t *testing.T) {
	s := fakeServer(Config{Jobs: 2})
	release := make(chan struct{})
	var sims atomic.Int32
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims.Add(1)
		<-release
		return fakeResult(w, m, o), nil
	}
	rec := get(t, s, "/v1/experiment?name=figure6&timeout_ms=30")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeTimeout {
		t.Fatalf("error code = %q, want timeout", e.Code)
	}
	close(release)
	// Figure 6 has six cells; the experiment itself was never rendered.
	waitFor(t, "figure 6's cells cached", func() bool {
		return s.Registry().Snapshot().Uint("serve.cache.entries") == 6
	})
	retry := get(t, s, "/v1/experiment?name=figure6")
	if retry.Code != http.StatusOK {
		t.Fatalf("retry: status %d: %s", retry.Code, retry.Body)
	}
	if n := sims.Load(); n != 6 {
		t.Errorf("%d simulations, want figure 6's 6 cells once each", n)
	}
}

// TestServedExperimentMatchesInProcess: every catalogue experiment
// rendered from cells decoded out of served run bodies is byte-identical
// to the same driver on an in-process engine. Table 4 reads the
// characterization and Figure 4 the raw utilization census, both derived
// from Metrics; the extension studies' cells carry Lanes and
// NoLaneReclaim through the served path.
func TestServedExperimentMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell simulation")
	}
	s := New(Config{})
	eng := vlt.NewEngine(0)
	for _, e := range vlt.Experiments() {
		rec := get(t, s, "/v1/experiment?name="+e.Name)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", e.Name, rec.Code, rec.Body)
		}
		data, text, err := e.Run(eng, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := api.Marshal(ExperimentResponse{Name: e.Name, Scale: 1, Data: data, Text: text})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			var got ExperimentResponse
			json.Unmarshal(rec.Body.Bytes(), &got)
			t.Errorf("%s: served body differs from the in-process engine's\nserved:\n%s\nin-process:\n%s", e.Name, got.Text, text)
		}
	}
}
