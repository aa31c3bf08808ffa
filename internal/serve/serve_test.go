package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/vet"
)

// get issues one request against the handler and returns the recorder.
func get(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func decodeError(t *testing.T, body []byte) apiError {
	t.Helper()
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad error envelope %q: %v", body, err)
	}
	return env.Error
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunEndpoint proves /v1/run serves one cell's full result, with
// its length declared, and that the numbers match a direct vlt.Run of
// the same cell.
func TestRunEndpoint(t *testing.T) {
	s := New(Config{})
	rec := get(t, s, "/v1/run?workload=mxm&machine=base")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if n := rec.Header().Get("Content-Length"); n != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", n, rec.Body.Len())
	}
	var got api.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	want, err := vlt.Run("mxm", vlt.MachineBase, vlt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Retired != want.Retired || !got.Verified {
		t.Fatalf("response cycles=%d retired=%d verified=%v; want %d, %d, true",
			got.Cycles, got.Retired, got.Verified, want.Cycles, want.Retired)
	}
	if len(got.Metrics) != len(want.Metrics) || len(got.Metrics) == 0 {
		t.Fatalf("metrics: %d entries, want %d (non-zero)", len(got.Metrics), len(want.Metrics))
	}
}

// TestRunPost proves the POST JSON form of /v1/run matches the GET form
// byte for byte (same cell, same cache entry).
func TestRunPost(t *testing.T) {
	s := New(Config{})
	cold := get(t, s, "/v1/run?workload=mxm&machine=base")
	if cold.Code != http.StatusOK {
		t.Fatalf("GET status %d: %s", cold.Code, cold.Body)
	}
	rec := httptest.NewRecorder()
	body := strings.NewReader(`{"workload":"mxm","machine":"base"}`)
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", rec.Code, rec.Body)
	}
	if !bytes.Equal(rec.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("POST body differs from GET body for the same cell")
	}
	if h := rec.Header().Get("X-VLT-Cache"); h != "hit" {
		t.Fatalf("POST after GET: X-VLT-Cache = %q, want hit", h)
	}
}

// TestCacheHitByteIdentical proves the core cache contract: a hot
// response replays the cold response's exact bytes, and the hit/miss
// counters land in the registry.
func TestCacheHitByteIdentical(t *testing.T) {
	s := New(Config{})
	cold := get(t, s, "/v1/run?workload=sage&machine=base")
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body)
	}
	if h := cold.Header().Get("X-VLT-Cache"); h != "miss" {
		t.Fatalf("cold X-VLT-Cache = %q, want miss", h)
	}
	hot := get(t, s, "/v1/run?workload=sage&machine=base")
	if hot.Code != http.StatusOK {
		t.Fatalf("hot status %d", hot.Code)
	}
	if h := hot.Header().Get("X-VLT-Cache"); h != "hit" {
		t.Fatalf("hot X-VLT-Cache = %q, want hit", h)
	}
	if !bytes.Equal(cold.Body.Bytes(), hot.Body.Bytes()) {
		t.Fatal("hot response is not byte-identical to the cold response")
	}
	snap := s.Registry().Snapshot()
	if hits := snap.Uint("serve.cache.hits"); hits != 1 {
		t.Fatalf("serve.cache.hits = %d, want 1", hits)
	}
	if misses := snap.Uint("serve.cache.misses"); misses != 1 {
		t.Fatalf("serve.cache.misses = %d, want 1", misses)
	}
}

// blockingServer returns a Server whose simulations block until release
// is closed, counting invocations.
func blockingServer(cfg Config) (s *Server, release chan struct{}, sims *int32, mu *sync.Mutex) {
	s = New(cfg)
	release = make(chan struct{})
	sims = new(int32)
	mu = new(sync.Mutex)
	real := s.runCell
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		mu.Lock()
		*sims++
		mu.Unlock()
		<-release
		return real(w, m, o)
	}
	return s, release, sims, mu
}

// TestCoalesce proves identical concurrent requests are simulated once:
// every response is byte-identical and the flight group reports one
// execution.
func TestCoalesce(t *testing.T) {
	s, release, sims, mu := blockingServer(Config{Jobs: 4})
	const n = 6
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get(t, s, "/v1/run?workload=mxm&machine=base")
		}(i)
	}
	// All n requests must be standing in the flight group (1 leader +
	// n-1 coalesced) before the simulation is released.
	waitFor(t, "all requests submitted", func() bool {
		return s.flight.Stats().Submitted >= n
	})
	close(release)
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Fatalf("request %d: body differs", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if *sims != 1 {
		t.Fatalf("simulations = %d, want 1 (coalesced)", *sims)
	}
	if st := s.flight.Stats(); st.Executed != 1 || st.Coalesced != n-1 {
		t.Fatalf("flight stats = %+v, want 1 executed, %d coalesced", st, n-1)
	}
}

// TestOverload429 proves admission control: with one pending slot
// occupied, a different cell is shed with 429 + Retry-After, and served
// normally once the flight drains.
func TestOverload429(t *testing.T) {
	s, release, _, _ := blockingServer(Config{Jobs: 1, MaxPending: 1})
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- get(t, s, "/v1/run?workload=mxm&machine=base") }()
	waitFor(t, "first request in flight", func() bool { return s.flight.Inflight() == 1 })

	rec := get(t, s, "/v1/run?workload=sage&machine=base")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Code != "overloaded" {
		t.Fatalf("error code = %q, want overloaded", e.Code)
	}

	close(release)
	if first := <-done; first.Code != http.StatusOK {
		t.Fatalf("occupying request: status %d: %s", first.Code, first.Body)
	}
	waitFor(t, "flight drained", func() bool { return s.flight.Inflight() == 0 })
	if rec := get(t, s, "/v1/run?workload=sage&machine=base"); rec.Code != http.StatusOK {
		t.Fatalf("after drain: status %d: %s", rec.Code, rec.Body)
	}
	snap := s.Registry().Snapshot()
	if rej := snap.Uint("serve.flight.rejected"); rej != 1 {
		t.Fatalf("serve.flight.rejected = %d, want 1", rej)
	}
}

// TestMaxPendingRaisedToJobs proves a pending bound below Jobs is raised
// to Jobs: with Jobs 2 and MaxPending 1, two distinct cells are in
// flight at once instead of the second being shed with 429.
func TestMaxPendingRaisedToJobs(t *testing.T) {
	s, release, _, _ := blockingServer(Config{Jobs: 2, MaxPending: 1})
	done := make(chan *httptest.ResponseRecorder, 2)
	for _, w := range []string{"mxm", "sage"} {
		go func() { done <- get(t, s, "/v1/run?workload="+w+"&machine=base") }()
	}
	waitFor(t, "two cells in flight", func() bool { return s.flight.Inflight() == 2 })
	close(release)
	for range 2 {
		if rec := <-done; rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// TestTimeout proves a request deadline abandons the wait with 504 and
// that the abandoned simulation still completes into the cache.
func TestTimeout(t *testing.T) {
	s, release, _, _ := blockingServer(Config{Jobs: 1})
	rec := get(t, s, "/v1/run?workload=mxm&machine=base&timeout_ms=30")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Code != "timeout" {
		t.Fatalf("error code = %q, want timeout", e.Code)
	}

	close(release)
	waitFor(t, "abandoned simulation cached", func() bool {
		_, ok := s.cache.Get("probe-miss-counter-only")
		_ = ok
		snap := s.Registry().Snapshot()
		return snap.Uint("serve.cache.entries") == 1
	})
	if rec := get(t, s, "/v1/run?workload=mxm&machine=base"); rec.Header().Get("X-VLT-Cache") != "hit" {
		t.Fatal("abandoned simulation's result did not land in the cache")
	}

	// A timeout_ms too large for a Duration in nanoseconds keeps the
	// default deadline; it must not overflow into an expired one.
	const huge = "/v1/run?workload=sage&machine=base&timeout_ms=9300000000000"
	if rec := get(t, s, huge); rec.Code != http.StatusOK {
		t.Fatalf("huge timeout_ms: status %d, want 200: %s", rec.Code, rec.Body)
	}
	if d := s.timeout(httptest.NewRequest(http.MethodGet, huge, nil)); d != s.cfg.Timeout {
		t.Fatalf("huge timeout_ms: deadline %v, want the default %v", d, s.cfg.Timeout)
	}
}

// TestVetFailure proves a vet-rejected request returns the typed 422
// error with the report.Diagnose text.
func TestVetFailure(t *testing.T) {
	s := New(Config{})
	s.vetCell = func(string, vlt.Machine, vlt.Options) error {
		return &vet.Error{Program: "mxm", Findings: []vet.Finding{{Msg: "synthetic finding"}}}
	}
	rec := get(t, s, "/v1/run?workload=mxm&machine=base")
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", rec.Code)
	}
	e := decodeError(t, rec.Body.Bytes())
	if e.Code != "vet_failed" {
		t.Fatalf("error code = %q, want vet_failed", e.Code)
	}
	if !strings.Contains(e.Diagnostic, "static verification") ||
		!strings.Contains(e.Diagnostic, "synthetic finding") {
		t.Fatalf("diagnostic missing Diagnose text:\n%s", e.Diagnostic)
	}
}

// TestBadRequests pins the 400/404 envelope for malformed input.
func TestBadRequests(t *testing.T) {
	s := New(Config{})
	cases := []struct {
		target string
		status int
		code   string
	}{
		{"/v1/run", http.StatusBadRequest, "bad_request"},
		{"/v1/run?workload=nope", http.StatusBadRequest, "bad_request"},
		{"/v1/run?workload=mxm&machine=warp9", http.StatusBadRequest, "bad_request"},
		{"/v1/run?workload=mxm&scale=-1", http.StatusBadRequest, "bad_request"},
		{"/v1/run?workload=mxm&scale=x", http.StatusBadRequest, "bad_request"},
		{"/v1/run?workload=radix&machine=base", http.StatusOK, ""}, // scalar workload on a vector machine is fine
		{"/v1/run?workload=mxm&machine=CMT", http.StatusBadRequest, "bad_request"},
		{"/v1/experiment", http.StatusBadRequest, "bad_request"},
		{"/v1/experiment?name=figure2", http.StatusNotFound, "not_found"},
		{"/v1/experiment?name=table1&scale=0", http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		rec := get(t, s, c.target)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.target, rec.Code, c.status, rec.Body)
			continue
		}
		if c.code != "" {
			if e := decodeError(t, rec.Body.Bytes()); e.Code != c.code {
				t.Errorf("%s: code %q, want %q", c.target, e.Code, c.code)
			}
		}
	}
}

// TestExperimentEndpoint proves /v1/experiment reuses the drivers and
// caches the rendered result.
func TestExperimentEndpoint(t *testing.T) {
	s := New(Config{})
	cold := get(t, s, "/v1/experiment?name=table1")
	if cold.Code != http.StatusOK {
		t.Fatalf("status %d: %s", cold.Code, cold.Body)
	}
	var resp ExperimentResponse
	if err := json.Unmarshal(cold.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Name != "table1" || resp.Scale != 1 || !strings.Contains(resp.Text, "Table 1") {
		t.Fatalf("unexpected response: %+v", resp)
	}
	hot := get(t, s, "/v1/experiment?name=table1")
	if hot.Header().Get("X-VLT-Cache") != "hit" {
		t.Fatal("second experiment request was not a cache hit")
	}
	if !bytes.Equal(cold.Body.Bytes(), hot.Body.Bytes()) {
		t.Fatal("experiment hot response differs from cold")
	}
	if n := hot.Header().Get("Content-Length"); n != strconv.Itoa(hot.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", n, hot.Body.Len())
	}
}

// TestExperimentFigure6 runs one real multi-cell driver end to end.
func TestExperimentFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell simulation")
	}
	s := New(Config{})
	rec := get(t, s, "/v1/experiment?name=figure6")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ExperimentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Text, "Figure 6") || resp.Data == nil {
		t.Fatalf("unexpected figure6 response: %.120s", resp.Text)
	}
}

// TestDiscovery proves /v1/workloads and /v1/machines enumerate the
// full catalogue.
func TestDiscovery(t *testing.T) {
	s := New(Config{})
	rec := get(t, s, "/v1/workloads")
	var wl struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Workloads) != len(vlt.Workloads()) {
		t.Fatalf("%d workloads, want %d", len(wl.Workloads), len(vlt.Workloads()))
	}
	for _, w := range wl.Workloads {
		if w.Name == "" || w.Class == "" || w.Description == "" {
			t.Fatalf("incomplete workload info: %+v", w)
		}
	}

	rec = get(t, s, "/v1/machines")
	var ms struct {
		Machines []string `json:"machines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms.Machines) != len(vlt.Machines()) {
		t.Fatalf("%d machines, want %d", len(ms.Machines), len(vlt.Machines()))
	}
}

// TestHealthzAndMetricsz proves the ops endpoints: healthz reports ok
// and metricsz exposes the cache/flight gauges in registry format.
func TestHealthzAndMetricsz(t *testing.T) {
	s := New(Config{})
	rec := get(t, s, "/healthz")
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz = %s (err %v)", rec.Body, err)
	}

	// One miss + one hit, then the counters must be visible.
	get(t, s, "/v1/run?workload=mxm&machine=base")
	get(t, s, "/v1/run?workload=mxm&machine=base")
	rec = get(t, s, "/metricsz")
	text := rec.Body.String()
	for _, want := range []string{
		"serve.cache.hits 1",
		"serve.cache.entries 1",
		"serve.flight.executed 1",
		"serve.flight.inflight 0",
		"serve.http.requests",
		"serve.cache.misses",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metricsz missing %q:\n%s", want, text)
		}
	}
}

// TestDrainingNodeStillServesRun pins what a fleet coordinator sees
// when it sends a cell to a draining peer: BeginDrain flips only the
// readiness form of /healthz, and POST /v1/run keeps answering 200 with
// the bytes a node that is not draining serves, for a cached cell and a
// cold one alike.
func TestDrainingNodeStillServesRun(t *testing.T) {
	post := func(s *Server, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /v1/run %s: status %d: %s", body, rec.Code, rec.Body)
		}
		return rec
	}
	const warm, cold = `{"workload":"mxm","machine":"base"}`, `{"workload":"sage","machine":"V4-CMT"}`
	s, ref := fakeServer(Config{}), fakeServer(Config{})
	before := post(s, warm)

	s.BeginDrain()
	if rec := get(t, s, "/healthz?ready=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readiness: status %d, want 503", rec.Code)
	}
	if got := post(s, warm); !bytes.Equal(got.Body.Bytes(), before.Body.Bytes()) {
		t.Fatal("draining node's body for a cached cell differs from its pre-drain body")
	}
	if got, want := post(s, cold), post(ref, cold); !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("draining node's body for a cold cell differs from a serving node's")
	}
}

// TestShutdownDrains proves the drain contract cmd/vltd relies on:
// http.Server.Shutdown waits for an in-flight simulation to finish and
// its request to be answered.
func TestShutdownDrains(t *testing.T) {
	s, release, _, _ := blockingServer(Config{Jobs: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()

	type result struct {
		status int
		body   []byte
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/v1/run?workload=mxm&machine=base")
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		reqDone <- result{status: resp.StatusCode, body: body}
	}()
	waitFor(t, "request in flight", func() bool { return s.flight.Inflight() == 1 })

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must not return while the simulation is in flight.
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v (in-flight request was not drained)", err)
	}
	r := <-reqDone
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("drained request: status %d, err %v", r.status, r.err)
	}
	var got api.RunResponse
	if err := json.Unmarshal(r.body, &got); err != nil || got.Cycles == 0 {
		t.Fatalf("drained response invalid: %v %.80s", err, r.body)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve: %v, want http.ErrServerClosed", err)
	}
}

// TestCacheLRU pins the byte-budget eviction policy at the cache level.
func TestCacheLRU(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 100)
	// Budget fits two entries (100 body + 1 key + 128 overhead each).
	c := newCache(2 * size("a", body))
	c.Put("a", body)
	c.Put("b", body)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted under budget")
	}
	c.Put("c", body) // evicts b (LRU: a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the budget")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently-used a was evicted instead of b")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}
	// An entry larger than the whole budget is refused, not stored.
	c.Put("huge", bytes.Repeat([]byte("y"), int(3*size("a", body))))
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry was cached")
	}
	if c.oversize != 1 {
		t.Fatalf("oversize = %d, want 1", c.oversize)
	}
}

// TestConcurrentMixedTraffic is the load generator: concurrent clients
// issuing a mix of hot cells, cold cells, discovery and ops requests
// against a live server, with the race detector watching. Every
// response for one cell must be byte-identical.
func TestConcurrentMixedTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation")
	}
	s := New(Config{Jobs: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	targets := []string{
		"/v1/run?workload=mxm&machine=base",
		"/v1/run?workload=sage&machine=base",
		"/v1/run?workload=mxm&machine=V2-CMP",
		"/v1/run?workload=radix&machine=CMT",
		"/v1/workloads",
		"/v1/machines",
		"/healthz",
		"/metricsz",
	}
	const clients, rounds = 8, 6
	bodies := make([]map[string][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bodies[c] = map[string][]byte{}
			for r := 0; r < rounds; r++ {
				target := targets[(c+r)%len(targets)]
				resp, err := http.Get(ts.URL + target)
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("%s: status %d: %s", target, resp.StatusCode, body)
					return
				}
				// Cell responses must be byte-stable across the whole run;
				// ops endpoints (healthz, metricsz) legitimately vary.
				if strings.HasPrefix(target, "/v1/") {
					if prev, ok := bodies[c][target]; ok && !bytes.Equal(prev, body) {
						errs[c] = fmt.Errorf("%s: response changed between rounds", target)
						return
					}
					bodies[c][target] = body
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", c, err)
		}
	}
	// Cross-client byte-identity for each /v1 target.
	for _, target := range targets {
		if !strings.HasPrefix(target, "/v1/") {
			continue
		}
		var ref []byte
		for c := 0; c < clients; c++ {
			b, ok := bodies[c][target]
			if !ok {
				continue
			}
			if ref == nil {
				ref = b
			} else if !bytes.Equal(ref, b) {
				t.Errorf("%s: clients observed different bodies", target)
				break
			}
		}
	}
	if st := s.flight.Stats(); st.Rejected != 0 {
		t.Errorf("load run shed %d requests; MaxPending default too low for this mix", st.Rejected)
	}
}

// TestRoutesRefuseOtherMethods pins the method gate on every route: a
// method the route does not serve is a 405 with an Allow header and the
// JSON error envelope, counted as a failure, and it never reaches the
// handler — a DELETE of a run must not simulate it.
func TestRoutesRefuseOtherMethods(t *testing.T) {
	s := fakeServer(Config{})
	var sims int
	s.runCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		sims++
		return fakeResult(w, m, o), nil
	}
	for _, c := range []struct{ method, target, allow string }{
		{http.MethodDelete, "/v1/run?workload=mxm&machine=base", "GET, HEAD, POST"},
		{http.MethodPut, "/v1/experiment?name=table1", "GET, HEAD"},
		{http.MethodDelete, "/v1/workloads", "GET, HEAD"},
		{http.MethodPatch, "/metricsz", "GET, HEAD"},
		{http.MethodGet, "/v1/sweep", "POST"},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.target, nil))
		name := c.method + " " + c.target
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want 405", name, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != c.allow {
			t.Errorf("%s: Allow %q, want %q", name, got, c.allow)
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != api.CodeBadRequest {
			t.Errorf("%s: code %q, want bad_request", name, e.Code)
		}
	}
	if sims != 0 {
		t.Errorf("refused requests ran %d simulations, want 0", sims)
	}
	if n := s.Registry().Snapshot().Uint("serve.http.failures"); n != 5 {
		t.Errorf("serve.http.failures = %d, want 5", n)
	}
	// The allowed methods still reach their handlers.
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, "/v1/workloads", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s /v1/workloads: status %d, want 200", method, rec.Code)
		}
	}
}
