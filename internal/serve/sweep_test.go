package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlt"
	"vlt/internal/api"
)

// fakeResult builds a deterministic result for one cell: a pure
// function of the cell coordinates, so every node (and every test
// server) stubs out simulation identically and byte-identity assertions
// stay meaningful. The scale is clamped to 1 as vlt.CellKey clamps it: a
// GET with no scale and a sweep cell at scale 1 share one key, so they
// must share one body whichever renders first.
func fakeResult(w string, m vlt.Machine, o vlt.Options) vlt.Result {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%d", w, m, max(o.Scale, 1), o.Lanes, o.Threads)
	seed := h.Sum64()
	return vlt.Result{
		Workload: w, Machine: m, Threads: max(o.Threads, 1),
		Cycles: seed%100000 + 1, Retired: seed % 50000,
		VecIssued: seed % 1000, VecElemOps: seed % 8000,
		Util:     vlt.Utilization{BusyPct: float64(seed % 100)},
		Verified: true,
	}
}

// fakeServer returns a Server whose simulation and vet layers are
// replaced with fast deterministic fakes.
func fakeServer(cfg Config) *Server {
	s := New(cfg)
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		return fakeResult(w, m, o), nil
	}
	s.vetCell = func(string, vlt.Machine, vlt.Options) error { return nil }
	return s
}

// postSweep posts a sweep request and splits the NDJSON stream into
// cell lines and the trailer (nil if the stream was truncated).
func postSweep(t *testing.T, s *Server, req api.SweepRequest) (*httptest.ResponseRecorder, []api.SweepCell, *api.SweepTrailer) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil, nil
	}
	var cells []api.SweepCell
	var trailer *api.SweepTrailer
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			trailer = &api.SweepTrailer{}
			if err := json.Unmarshal(line, trailer); err != nil {
				t.Fatalf("bad trailer %q: %v", line, err)
			}
			continue
		}
		var cell api.SweepCell
		if err := json.Unmarshal(line, &cell); err != nil {
			t.Fatalf("bad cell line %q: %v", line, err)
		}
		cells = append(cells, cell)
	}
	return rec, cells, trailer
}

// TestSweepStream proves the basic stream contract: row-major cell
// order, one line per cell, each result byte-identical to the /v1/run
// body of the same cell, and a trailer accounting for every line.
func TestSweepStream(t *testing.T) {
	s := fakeServer(Config{Jobs: 4})
	req := api.SweepRequest{
		Workloads: []string{"mxm", "sage"},
		Machines:  []string{"base", "CMT"},
		Scales:    []int{1, 2},
	}
	rec, cells, trailer := postSweep(t, s, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	want := req.Cells()
	if len(cells) != len(want) {
		t.Fatalf("%d cell lines, want %d", len(cells), len(want))
	}
	// One counted miss per cold cell: the flight job's re-check of the
	// cache before rendering does not count again.
	if misses := s.Registry().Snapshot().Uint("serve.cache.misses"); misses != uint64(len(want)) {
		t.Fatalf("serve.cache.misses = %d after a cold %d-cell sweep, want %d", misses, len(want), len(want))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("line %d carries index %d", i, c.Index)
		}
		if c.Workload != want[i].Workload || c.Machine != want[i].Machine || c.Scale != want[i].Scale {
			t.Fatalf("line %d is %s/%s@x%d, want %s/%s@x%d (row-major order)",
				i, c.Workload, c.Machine, c.Scale, want[i].Workload, want[i].Machine, want[i].Scale)
		}
		if c.Error != nil || len(c.Result) == 0 {
			t.Fatalf("line %d: error=%v result-len=%d", i, c.Error, len(c.Result))
		}
		// The embedded result must be the /v1/run body verbatim (modulo
		// the body's trailing newline, which the stream strips).
		run := httptest.NewRecorder()
		runBody, _ := json.Marshal(want[i])
		s.Handler().ServeHTTP(run, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(runBody)))
		if run.Code != http.StatusOK {
			t.Fatalf("/v1/run for cell %d: status %d", i, run.Code)
		}
		if !bytes.Equal(c.Result, bytes.TrimRight(run.Body.Bytes(), "\n")) {
			t.Fatalf("cell %d: sweep result differs from /v1/run body", i)
		}
	}
	if trailer == nil || !trailer.Done || trailer.Cells != len(want) || trailer.Errors != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
}

// TestSweepCellErrorContinues proves the error-envelope contract: a
// failing cell occupies its line with a typed error and the stream
// keeps going.
func TestSweepCellErrorContinues(t *testing.T) {
	s := fakeServer(Config{Jobs: 2})
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		if w == "sage" {
			return vlt.Result{}, fmt.Errorf("synthetic deadlock at cycle 42")
		}
		return fakeResult(w, m, o), nil
	}
	req := api.SweepRequest{
		Workloads: []string{"mxm", "sage"},
		Machines:  []string{"base", "CMT"},
	}
	_, cells, trailer := postSweep(t, s, req)
	if len(cells) != 4 {
		t.Fatalf("%d cell lines, want 4", len(cells))
	}
	errCells := 0
	for _, c := range cells {
		if c.Workload == "sage" {
			errCells++
			if c.Error == nil || c.Error.Code != api.CodeSimFailed {
				t.Fatalf("sage cell error = %+v, want %s", c.Error, api.CodeSimFailed)
			}
			if wantCell := c.Workload + "/" + c.Machine; c.Error.Cell != wantCell {
				t.Fatalf("error cell = %q, want %q", c.Error.Cell, wantCell)
			}
			if !strings.Contains(c.Error.Message, "synthetic deadlock") {
				t.Fatalf("error message = %q", c.Error.Message)
			}
			if c.Error.Diagnostic == "" {
				t.Fatal("error line carries no diagnostic")
			}
		} else if c.Error != nil {
			t.Fatalf("healthy cell %s/%s carries error %v", c.Workload, c.Machine, c.Error)
		}
	}
	if trailer == nil || trailer.Errors != errCells || trailer.Cells != 4 {
		t.Fatalf("trailer = %+v, want errors=%d cells=4", trailer, errCells)
	}
}

// TestSweepBadRequests pins the pre-stream 400 envelope: a malformed
// grid fails before the stream commits to 200.
func TestSweepBadRequests(t *testing.T) {
	s := fakeServer(Config{})
	cases := []struct {
		name string
		req  api.SweepRequest
	}{
		{"empty grid", api.SweepRequest{}},
		{"no machines", api.SweepRequest{Workloads: []string{"mxm"}}},
		{"bad scale", api.SweepRequest{Workloads: []string{"mxm"}, Machines: []string{"base"}, Scales: []int{0}}},
		{"unknown machine", api.SweepRequest{Workloads: []string{"mxm"}, Machines: []string{"warp9"}}},
		{"unknown workload", api.SweepRequest{Workloads: []string{"nope"}, Machines: []string{"base"}}},
		{"negative lanes", api.SweepRequest{Workloads: []string{"mxm"}, Machines: []string{"base"}, Lanes: -2}},
		{"negative threads", api.SweepRequest{Workloads: []string{"mxm"}, Machines: []string{"V4-CMT"}, Threads: -1}},
	}
	for _, c := range cases {
		rec, _, _ := postSweep(t, s, c.req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, rec.Code)
			continue
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want bad_request", c.name, e.Code)
		}
	}

	// An oversized grid is refused by the cell bound.
	many := make([]string, 80)
	for i := range many {
		many[i] = "mxm"
	}
	big := api.SweepRequest{Workloads: many, Machines: many} // 6400 cells
	if rec, _, _ := postSweep(t, s, big); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", rec.Code)
	}

	// And the endpoint is POST-only.
	rec := get(t, s, "/v1/sweep")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: status %d, want 405", rec.Code)
	}
}

// TestReadinessSplit proves the liveness/readiness split: bare /healthz
// always answers ok, the ready form 503s only while draining, and the
// serve.ready gauge tracks it.
func TestReadinessSplit(t *testing.T) {
	s := fakeServer(Config{})
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("liveness: status %d", rec.Code)
	}
	rec := get(t, s, "/healthz?ready=1")
	var h api.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusOK || h.Status != "ready" {
		t.Fatalf("readiness: status %d, body %s", rec.Code, rec.Body)
	}

	if v, _ := s.Registry().Float("serve.ready"); v != 1 {
		t.Fatalf("serve.ready = %v, want 1", v)
	}

	s.BeginDrain()
	rec = get(t, s, "/healthz?ready=1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", rec.Code)
	}
	if e := decodeError(t, rec.Body.Bytes()); !strings.Contains(e.Message, "draining") {
		t.Fatalf("draining envelope = %+v", e)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 carries no Retry-After")
	}
	if rec := get(t, s, "/healthz"); rec.Code != http.StatusOK {
		t.Fatal("liveness must survive a drain")
	}
	if v, _ := s.Registry().Float("serve.ready"); v != 0 {
		t.Fatalf("draining serve.ready = %v, want 0", v)
	}
}

// TestSweepFlushesBeforeWaiting: the writer flushes before it waits on
// a cell still simulating, so while cell 1 is held, line 0 has already
// reached the client. Cell 0 returns only once cell 1 has started, so
// the writer mostly has cell 1's future in hand when it writes line 0,
// does not flush after it, and only the flush before the wait sends it.
func TestSweepFlushesBeforeWaiting(t *testing.T) {
	s := fakeServer(Config{Jobs: 2})
	started, release := make(chan struct{}), make(chan struct{})
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		if m == vlt.MachineBase {
			<-started
		} else {
			close(started)
			<-release
		}
		return fakeResult(w, m, o), nil
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// Neither the status line nor line 0 reaches the client unless the
	// writer flushes before it waits, so both are read under the timer.
	type first struct {
		resp *http.Response
		rd   *bufio.Reader
		line string
		err  error
	}
	got := make(chan first, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/sweep", "application/json",
			strings.NewReader(`{"workloads":["mxm"],"machines":["base","CMT"]}`))
		if err != nil {
			got <- first{err: err}
			return
		}
		rd := bufio.NewReader(resp.Body)
		l, err := rd.ReadString('\n')
		got <- first{resp, rd, l, err}
	}()
	var rd *bufio.Reader
	select {
	case f := <-got:
		var cell api.SweepCell
		if f.err != nil || json.Unmarshal([]byte(f.line), &cell) != nil || cell.Index != 0 || cell.Machine != "base" {
			t.Fatalf("first line %q (%v), want cell 0 on base", f.line, f.err)
		}
		defer f.resp.Body.Close()
		rd = f.rd
	case <-time.After(5 * time.Second):
		t.Fatal("line 0 did not reach the client while cell 1 was simulating")
	}
	close(release)
	rest, err := io.ReadAll(rd)
	if err != nil || !strings.Contains(string(rest), `"machine":"CMT"`) || !strings.Contains(string(rest), `"done":true`) {
		t.Fatalf("rest of the stream %q, %v; want cell 1 and the trailer", rest, err)
	}
}

// TestAbandonedWaitersReleaseSlots is the flight-slot accounting
// regression test: waiters abandoned by timeout_ms must not leak
// pending slots — repeated 504s on one blocked cell coalesce onto one
// leader, a second cell is shed only while that leader holds the single
// slot, and every gauge returns to zero once the flight drains.
func TestAbandonedWaitersReleaseSlots(t *testing.T) {
	s, release, _, _ := blockingServer(Config{Jobs: 1, MaxPending: 1})
	for i := 0; i < 5; i++ {
		rec := get(t, s, "/v1/run?workload=mxm&machine=base&timeout_ms=20")
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504", i, rec.Code)
		}
	}
	// Five abandoned waiters later the cell still occupies exactly one
	// pending slot: the sixth wait coalesced, it did not resubmit.
	if got := s.flight.Inflight(); got != 1 {
		t.Fatalf("inflight after abandoned waits = %d, want 1", got)
	}
	// The single MaxPending slot is the leader's; an unrelated cell is
	// shed — proof the abandoned waiters did not pile up extra slots is
	// that exactly one slot is held, not six.
	if rec := get(t, s, "/v1/run?workload=sage&machine=base&timeout_ms=20"); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second cell: status %d, want 429", rec.Code)
	}

	close(release)
	waitFor(t, "flight drained", func() bool { return s.flight.Inflight() == 0 })
	snap := s.Registry().Snapshot()
	if got := snap.Uint("serve.flight.inflight"); got != 0 {
		t.Fatalf("serve.flight.inflight = %d after drain, want 0", got)
	}
	if exec := snap.Uint("serve.flight.executed"); exec != 1 {
		t.Fatalf("serve.flight.executed = %d, want 1 (coalesced)", exec)
	}
	// Freed slots are reusable: both cells now serve fine.
	if rec := get(t, s, "/v1/run?workload=mxm&machine=base"); rec.Code != http.StatusOK {
		t.Fatalf("abandoned cell after drain: status %d", rec.Code)
	}
	if rec := get(t, s, "/v1/run?workload=sage&machine=base"); rec.Code != http.StatusOK {
		t.Fatalf("shed cell after drain: status %d", rec.Code)
	}
}

// TestConcurrentSweepsExactlyOnce proves sweep fan-out coalesces across
// streams: N parallel sweeps over overlapping grids simulate each
// unique cell exactly once and observe byte-identical bodies.
func TestConcurrentSweepsExactlyOnce(t *testing.T) {
	s := fakeServer(Config{Jobs: 4})
	var mu sync.Mutex
	sims := map[string]int{}
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		mu.Lock()
		sims[fmt.Sprintf("%s|%s|%d", w, m, o.Scale)]++
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // widen the coalescing window
		return fakeResult(w, m, o), nil
	}

	grids := []api.SweepRequest{
		{Workloads: []string{"mxm", "sage"}, Machines: []string{"base", "CMT"}},
		{Workloads: []string{"sage", "radix"}, Machines: []string{"base", "CMT"}},
		{Workloads: []string{"mxm", "radix"}, Machines: []string{"CMT", "V2-CMP"}},
		{Workloads: []string{"mxm", "sage", "radix"}, Machines: []string{"base"}},
	}
	type sweepOut struct {
		cells   []api.SweepCell
		trailer *api.SweepTrailer
	}
	outs := make([]sweepOut, len(grids))
	var wg sync.WaitGroup
	var aborted atomic.Bool
	for i, g := range grids {
		wg.Add(1)
		go func(i int, g api.SweepRequest) {
			defer wg.Done()
			rec, cells, trailer := postSweep(t, s, g)
			if rec.Code != http.StatusOK {
				aborted.Store(true)
				return
			}
			outs[i] = sweepOut{cells, trailer}
		}(i, g)
	}
	wg.Wait()
	if aborted.Load() {
		t.Fatal("a sweep did not return 200")
	}

	// Every stream is complete and error-free.
	bodies := map[string][]byte{}
	for i, out := range outs {
		if out.trailer == nil || !out.trailer.Done || out.trailer.Errors != 0 {
			t.Fatalf("sweep %d trailer = %+v", i, out.trailer)
		}
		if out.trailer.Cells != len(grids[i].Cells()) {
			t.Fatalf("sweep %d: %d cells, want %d", i, out.trailer.Cells, len(grids[i].Cells()))
		}
		for _, c := range out.cells {
			key := fmt.Sprintf("%s|%s|%d", c.Workload, c.Machine, max(c.Scale, 0))
			if prev, ok := bodies[key]; ok {
				if !bytes.Equal(prev, c.Result) {
					t.Fatalf("cell %s: bodies differ across sweeps", key)
				}
			} else {
				bodies[key] = c.Result
			}
		}
	}
	// Each unique cell was simulated exactly once across all 4 sweeps.
	mu.Lock()
	defer mu.Unlock()
	for cell, n := range sims {
		if n != 1 {
			t.Errorf("cell %s simulated %d times, want 1", cell, n)
		}
	}
	if len(sims) != len(bodies) {
		t.Errorf("%d unique cells simulated, %d observed", len(sims), len(bodies))
	}
}
