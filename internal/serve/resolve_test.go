package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/store"
)

// resolvedLen reads the resolve memo's size under its lock.
func resolvedLen(s *Server) int {
	s.resolvedMu.Lock()
	defer s.resolvedMu.Unlock()
	return len(s.resolved)
}

// countKeys wraps s.cellKey with a call counter.
func countKeys(s *Server) *atomic.Int32 {
	var n atomic.Int32
	real := s.cellKey
	s.cellKey = func(w string, m vlt.Machine, o vlt.Options) (string, error) {
		n.Add(1)
		return real(w, m, o)
	}
	return &n
}

// post issues one POST of body to target against the handler.
func post(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
}

// TestResolveMatchesCellKey proves the memo is invisible: over every
// workload x machine cell and a spread of options, resolve answers
// exactly vlt.CellKey and its store.ETag, first from the resolver and
// then from the memo, and fails wherever CellKey fails.
func TestResolveMatchesCellKey(t *testing.T) {
	s := New(Config{})
	opts := []vlt.Options{{}, {Lanes: 1}, {Lanes: 2}, {Lanes: 4}, {Scale: 2}}
	for pass := range 2 {
		for _, w := range vlt.Workloads() {
			for _, m := range vlt.Machines() {
				for _, o := range opts {
					want, wantErr := vlt.CellKey(w, m, o)
					id, err := s.resolve(w, m, o)
					if (err != nil) != (wantErr != nil) {
						t.Fatalf("pass %d, %s/%s %+v: resolve error %v, CellKey error %v", pass, w, m, o, err, wantErr)
					}
					if id.key != want || (err == nil && id.etag != store.ETag(want)) {
						t.Fatalf("pass %d, %s/%s %+v: resolve = %+v, want key %s etag %s",
							pass, w, m, o, id, want, store.ETag(want))
					}
				}
			}
		}
	}
}

// TestResolveOncePerRequest proves a repeated cell request resolves no
// key: GETs, POSTs and a conditional revalidation of one cell call the
// resolver once between them, and repeated sweeps of it once more (a
// sweep cell spells the default scale as 1, a distinct request).
func TestResolveOncePerRequest(t *testing.T) {
	s := fakeServer(Config{})
	calls := countKeys(s)
	const n = 5
	for i := range n {
		if rec := get(t, s, "/v1/run?workload=mxm&machine=base"); rec.Code != http.StatusOK {
			t.Fatalf("GET %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	var etag string
	for i := range n {
		rec := post(t, s, "/v1/run", `{"workload":"mxm","machine":"base"}`)
		if rec.Code != http.StatusOK || rec.Header().Get("X-VLT-Cache") != tierMemory {
			t.Fatalf("POST %d: status %d, tier %q", i, rec.Code, rec.Header().Get("X-VLT-Cache"))
		}
		etag = rec.Header().Get("ETag")
	}
	if rec := conditional(t, s, "/v1/run?workload=mxm&machine=base", etag); rec.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", rec.Code)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d GETs, %d POSTs and a 304 of one cell resolved %d keys, want 1", n, n, got)
	}
	for i := range n {
		_, cells, _ := postSweep(t, s, api.SweepRequest{Workloads: []string{"mxm"}, Machines: []string{"base"}})
		if len(cells) != 1 || cells[0].Error != nil {
			t.Fatalf("sweep %d: %+v, want one good line", i, cells)
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("%d sweeps of the cell took the key count to %d, want 2", n, got)
	}
}

// TestExperimentCellsResolveOnce proves experiment cells share the
// resolve memo with runs and sweeps: after a sweep of the paper grid,
// the experiments over grid cells key nothing, and all eleven
// experiments key each cell request the grid did not spell, once.
func TestExperimentCellsResolveOnce(t *testing.T) {
	grid := api.SweepRequest{Workloads: vlt.Workloads(), Machines: machineNames()}
	var mu sync.Mutex
	outside := make(map[cellRequest]bool)
	record := func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		mu.Lock()
		outside[cellRequest{w, m, o}] = true
		mu.Unlock()
		return fakeResult(w, m, o), nil
	}
	for _, e := range vlt.Experiments() {
		if _, _, err := e.Run(vlt.NewEngineFrom(record), 1); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	for _, c := range grid.Cells() {
		delete(outside, cellRequest{c.Workload, vlt.Machine(c.Machine), c.Options()})
	}
	if len(outside) == 0 {
		t.Fatal("every experiment cell is a grid cell; the test proves nothing")
	}

	s := fakeServer(Config{})
	calls := countKeys(s)
	if _, cells, trailer := postSweep(t, s, grid); trailer == nil || len(cells) != len(grid.Cells()) {
		t.Fatalf("grid sweep: %d lines, trailer %+v", len(cells), trailer)
	}
	swept := calls.Load()
	for _, name := range []string{"figure3", "figure4", "figure5", "figure6", "table4"} {
		if rec := get(t, s, "/v1/experiment?name="+name); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
	}
	if n := calls.Load() - swept; n != 0 {
		t.Fatalf("grid experiments after a grid sweep keyed %d cells, want 0", n)
	}
	for _, e := range vlt.Experiments() {
		if rec := get(t, s, "/v1/experiment?name="+e.Name); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", e.Name, rec.Code, rec.Body)
		}
	}
	if n := calls.Load() - swept; int(n) != len(outside) {
		t.Fatalf("all eleven experiments keyed %d cells, want the %d requests outside the grid", n, len(outside))
	}
}

// TestResolveMemoBounded proves the cap: one more distinct request than
// the memo holds never grows it past maxResolved, and every answer, before
// and after the memo is dropped, is still the recomputed key.
func TestResolveMemoBounded(t *testing.T) {
	s := New(Config{})
	check := func(scale int) {
		t.Helper()
		o := vlt.Options{Scale: scale}
		want, err := vlt.CellKey("mxm", vlt.MachineBase, o)
		if err != nil {
			t.Fatal(err)
		}
		id, err := s.resolve("mxm", vlt.MachineBase, o)
		if err != nil || id.key != want || id.etag != store.ETag(want) {
			t.Fatalf("scale %d: resolve = %+v, %v; want key %s", scale, id, err, want)
		}
		if n := resolvedLen(s); n > maxResolved {
			t.Fatalf("scale %d: memo holds %d entries, cap %d", scale, n, maxResolved)
		}
	}
	for scale := 1; scale <= maxResolved+1; scale++ {
		check(scale)
	}
	if n := resolvedLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after the drop, want 1", n)
	}
	check(1)
	check(maxResolved + 1)
}

// TestResolveFailuresNotMemoized proves a failed resolution is answered
// 400 every time and leaves no entry behind.
func TestResolveFailuresNotMemoized(t *testing.T) {
	s := fakeServer(Config{})
	calls := countKeys(s)
	for i := range 2 {
		rec := get(t, s, "/v1/run?workload=nope&machine=base")
		if rec.Code != http.StatusBadRequest || decodeError(t, rec.Body.Bytes()).Code != api.CodeBadRequest {
			t.Fatalf("unknown workload, request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec, _, _ := postSweep(t, s, api.SweepRequest{Workloads: []string{"nope"}, Machines: []string{"base"}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("sweep of an unknown workload: status %d", rec.Code)
	}
	if n := resolvedLen(s); n != 0 {
		t.Fatalf("memo holds %d entries after failed resolutions, want 0", n)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("three failing requests resolved %d times, want 3 (failures are not memoized)", got)
	}
}

// TestRunRejectsNegativeCounts proves a negative lanes, threads or scale
// on POST /v1/run is a 400 naming the value, as on GET, and simulates
// nothing.
func TestRunRejectsNegativeCounts(t *testing.T) {
	s := New(Config{})
	var sims atomic.Int32
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims.Add(1)
		return vlt.Run(w, m, o)
	}
	for _, c := range []struct{ body, want string }{
		{`{"workload":"mxm","machine":"base","lanes":-2}`, "-2"},
		{`{"workload":"mxm","machine":"base","threads":-1}`, "-1"},
		{`{"workload":"mxm","machine":"base","scale":-4}`, "-4"},
	} {
		rec := post(t, s, "/v1/run", c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400: %s", c.body, rec.Code, rec.Body)
			continue
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, c.want) {
			t.Errorf("POST %s: error %+v, want bad_request naming %s", c.body, e, c.want)
		}
	}
	for _, target := range []string{
		"/v1/run?workload=mxm&machine=base&lanes=-2",
		"/v1/run?workload=mxm&machine=base&threads=-1",
	} {
		if rec := get(t, s, target); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", target, rec.Code)
		}
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("rejected requests ran %d simulations", n)
	}
}

// TestResolveRace hammers the memo from every entry point at once under
// the race detector: GET and POST runs and sweeps over the grid,
// /metricsz scrapes, and a churn of distinct requests that keeps dropping
// the memo. Every run answer must carry its cell's own ETag.
func TestResolveRace(t *testing.T) {
	s := fakeServer(Config{Jobs: 4})
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range vlt.Workloads() {
				for _, m := range vlt.Machines() {
					var rec *httptest.ResponseRecorder
					if c%2 == 0 {
						rec = get(t, s, "/v1/run?workload="+w+"&machine="+string(m))
					} else {
						body, _ := json.Marshal(api.RunRequest{Workload: w, Machine: string(m)})
						rec = post(t, s, "/v1/run", string(body))
					}
					key, _ := vlt.CellKey(w, m, vlt.Options{})
					if rec.Code != http.StatusOK || rec.Header().Get("ETag") != store.ETag(key) {
						t.Errorf("%s/%s: status %d, ETag %q", w, m, rec.Code, rec.Header().Get("ETag"))
						return
					}
				}
			}
		}()
	}
	grid := api.SweepRequest{Workloads: vlt.Workloads(), Machines: machineNames()}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cells, trailer := postSweep(t, s, grid)
			if trailer == nil || trailer.Errors != 0 || len(cells) != len(grid.Cells()) {
				t.Errorf("grid sweep: %d lines, trailer %+v", len(cells), trailer)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 50 {
			if rec := get(t, s, "/metricsz"); rec.Code != http.StatusOK {
				t.Errorf("/metricsz: status %d", rec.Code)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for scale := 1; scale <= 2*maxResolved; scale++ {
			if _, err := s.resolve("sage", vlt.MachineBase, vlt.Options{Scale: scale}); err != nil {
				t.Errorf("scale %d: %v", scale, err)
				return
			}
		}
	}()
	wg.Wait()
	if n := resolvedLen(s); n > maxResolved {
		t.Fatalf("memo holds %d entries, cap %d", n, maxResolved)
	}
	// The hammer must not have changed any body: a final GET of one cell
	// is byte-identical to a fresh server's.
	fresh := fakeServer(Config{})
	a, b := get(t, s, "/v1/run?workload=mxm&machine=V4-CMT"), get(t, fresh, "/v1/run?workload=mxm&machine=V4-CMT")
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("body after the hammer differs from a fresh server's")
	}
}

// TestPostRejectsUnknownFields proves a misspelt field in a POST body
// is a 400 naming it, on /v1/run and /v1/sweep alike, rather than a
// default silently standing in for it and serving a different cell.
func TestPostRejectsUnknownFields(t *testing.T) {
	s := fakeServer(Config{})
	var sims atomic.Int32
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims.Add(1)
		return fakeResult(w, m, o), nil
	}
	for _, c := range []struct{ target, body, field string }{
		{"/v1/run", `{"workload":"mxm","machin":"V4-CMT"}`, "machin"},
		{"/v1/run", `{"workload":"radix","machine":"CMT","threads":3,"skip_verify":true}`, "skip_verify"},
		{"/v1/sweep", `{"workloads":["mxm"],"machines":["base"],"scale":[2]}`, "scale"},
	} {
		rec := post(t, s, c.target, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400: %s", c.target, c.body, rec.Code, rec.Body)
			continue
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeBadRequest || !strings.Contains(e.Message, `"`+c.field+`"`) {
			t.Errorf("POST %s %s: error %+v, want bad_request naming %q", c.target, c.body, e, c.field)
		}
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("rejected requests ran %d simulations", n)
	}
}

// TestRefusedConfigIsBadRequest: a configuration core.NewMachine would
// refuse (8 lanes do not split into 3 partitions) is a 400 from the
// miss path's vet check, before the cell takes a flight slot, on GET and
// POST alike.
func TestRefusedConfigIsBadRequest(t *testing.T) {
	s := New(Config{})
	var sims atomic.Int32
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims.Add(1)
		return fakeResult(w, m, o), nil
	}
	for _, rec := range []*httptest.ResponseRecorder{
		get(t, s, "/v1/run?workload=mxm&machine=V4-CMP&threads=3"),
		post(t, s, "/v1/run", `{"workload":"mxm","machine":"V4-CMP","threads":3}`),
	} {
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body)
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeBadRequest ||
			!strings.Contains(e.Message, "cannot split 8 lanes into 3 partitions") {
			t.Errorf("error %+v, want bad_request naming the partition count", e)
		}
	}
	if n := sims.Load(); n != 0 {
		t.Errorf("refused cells ran %d simulations", n)
	}
	if n := s.Registry().Snapshot().Uint("serve.flight.executed"); n != 0 {
		t.Errorf("serve.flight.executed = %d, want 0", n)
	}
}
