package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// post issues one POST of body to target against the handler.
func post(t *testing.T, s *Server, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec
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

// TestKeyedPathsRace hammers every keyed entry point at once under the
// race detector: GET and POST runs and sweeps over the grid, /metricsz
// scrapes, and a churn of distinct requests. Every run answer must carry
// its cell's own ETag.
func TestKeyedPathsRace(t *testing.T) {
	// A pending bound above every distinct key in the test: no run is shed.
	s := fakeServer(Config{Jobs: 4, MaxPending: 1024})
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
		for scale := 1; scale <= 64; scale++ {
			rec := get(t, s, fmt.Sprintf("/v1/run?workload=sage&machine=base&scale=%d", scale))
			key, _ := vlt.CellKey("sage", vlt.MachineBase, vlt.Options{Scale: scale})
			if rec.Code != http.StatusOK || rec.Header().Get("ETag") != store.ETag(key) {
				t.Errorf("scale %d: status %d, ETag %q", scale, rec.Code, rec.Header().Get("ETag"))
				return
			}
		}
	}()
	wg.Wait()
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
