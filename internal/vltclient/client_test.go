package vltclient

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vlt/internal/api"
	"vlt/internal/stats"
)

// fastCfg returns a Config with backoffs short enough for tests.
func fastCfg(base string) Config {
	return Config{
		BaseURL:     base,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	b := newBreaker(3, 5*time.Second, now)

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.failure()
	}
	if st, _, _ := b.snapshot(); st != stateClosed {
		t.Fatalf("state after 2 failures = %d, want closed", st)
	}
	b.allow()
	b.failure() // third consecutive failure: trips
	if st, trips, _ := b.snapshot(); st != stateOpen || trips != 1 {
		t.Fatalf("after threshold: state=%d trips=%d, want open/1", st, trips)
	}
	if b.allow() {
		t.Fatal("open breaker allowed a call inside cooldown")
	}
	if _, _, rejects := b.snapshot(); rejects != 1 {
		t.Fatalf("rejects = %d, want 1", rejects)
	}

	clock = clock.Add(5 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	if b.allow() {
		t.Fatal("second concurrent half-open probe admitted")
	}
	b.success()
	if st, _, _ := b.snapshot(); st != stateClosed {
		t.Fatalf("state after probe success = %d, want closed", st)
	}

	// A fresh run of failures re-opens; a failed probe re-opens too.
	for i := 0; i < 3; i++ {
		b.allow()
		b.failure()
	}
	clock = clock.Add(5 * time.Second)
	if !b.allow() {
		t.Fatal("probe after second cooldown rejected")
	}
	b.failure()
	if st, trips, _ := b.snapshot(); st != stateOpen || trips != 3 {
		t.Fatalf("after failed probe: state=%d trips=%d, want open/3", st, trips)
	}
}

func TestRetriesTransient5xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "proxy glitch", http.StatusBadGateway)
			return
		}
		fmt.Fprintln(w, `{"workload":"fir","machine":"cmp","mips":1}`)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	reg := stats.New()
	cfg.Registry = reg
	c := New(cfg)
	body, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	if err != nil {
		t.Fatalf("RunBody after transient 502s: %v", err)
	}
	if !strings.Contains(string(body), `"workload":"fir"`) {
		t.Fatalf("body = %q", body)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hits = %d, want 3", got)
	}
	if got := reg.Snapshot().Uint("retries"); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestNoRetryOnTypedClientError(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusUnprocessableEntity)
		fmt.Fprintln(w, `{"error":{"code":"vet_failed","message":"lanes out of range","cell":"fir/cmp"}}`)
	}))
	defer srv.Close()

	c := New(fastCfg(srv.URL))
	_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	var ae *api.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v (%T), want *api.Error", err, err)
	}
	if ae.Code != api.CodeVetFailed || ae.Cell != "fir/cmp" {
		t.Fatalf("envelope = %+v", ae)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1 (4xx must not retry)", hits.Load())
	}
}

func TestNoRetryOnDeterministicSimFailure(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":{"code":"simulation_failed","message":"deadlock at cycle 10"}}`)
	}))
	defer srv.Close()

	c := New(fastCfg(srv.URL))
	_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeSimFailed {
		t.Fatalf("error = %v, want simulation_failed envelope", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1 (deterministic failure must not retry)", hits.Load())
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":{"code":"overloaded","message":"try later"}}`)
			return
		}
		fmt.Fprintln(w, `{"workload":"fir"}`)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	cfg.BaseBackoff = time.Hour // only Retry-After=0 makes this test fast
	cfg.MaxBackoff = time.Hour
	c := New(cfg)
	done := make(chan error, 1)
	go func() {
		_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunBody: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry ignored Retry-After: 0 and slept the exponential backoff")
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2", hits.Load())
	}
}

func TestBreakerOpensAndFailsFast(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	cfg.MaxRetries = -1 // isolate breaker accounting from retry accounting
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	reg := stats.New()
	cfg.Registry = reg
	c := New(cfg)

	for i := 0; i < 2; i++ {
		if _, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"}); err == nil {
			t.Fatal("want error from 503")
		}
	}
	_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("third call error = %v, want ErrCircuitOpen", err)
	}
	snap := reg.Snapshot()
	if got := snap.Uint("breaker.trips"); got != 1 {
		t.Fatalf("breaker.trips = %d, want 1", got)
	}
	if got := snap.Uint("breaker.rejects"); got != 1 {
		t.Fatalf("breaker.rejects = %d, want 1", got)
	}
	if got := snap.Float("breaker.state"); got != stateOpen {
		t.Fatalf("breaker.state = %v, want %d (open)", got, stateOpen)
	}
}

// TestTypedAnswersKeepBreakerClosed: a typed, non-transient answer
// (here simulation_failed) is deterministic and comes from a live peer,
// so any number of them leaves the breaker closed.
func TestTypedAnswersKeepBreakerClosed(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":{"code":"simulation_failed","message":"deadlock at cycle 10"}}`)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	reg := stats.New()
	cfg.Registry = reg
	c := New(cfg)
	for i := 0; i < cfg.BreakerThreshold+1; i++ {
		_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeSimFailed {
			t.Fatalf("call %d: error = %v, want simulation_failed envelope", i, err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Float("breaker.state"); got != stateClosed {
		t.Fatalf("breaker.state = %v, want %d (closed)", got, stateClosed)
	}
	if got := snap.Uint("breaker.trips"); got != 0 {
		t.Fatalf("breaker.trips = %d, want 0", got)
	}
	if got := hits.Load(); got != int64(cfg.BreakerThreshold+1) {
		t.Fatalf("server hits = %d, want %d (no call may fail fast)", got, cfg.BreakerThreshold+1)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	var sawTimeout atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("timeout_ms") != "" {
			sawTimeout.Store(true)
		}
		fmt.Fprintln(w, `{"workload":"fir"}`)
	}))
	defer srv.Close()

	c := New(fastCfg(srv.URL))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.RunBody(ctx, api.RunRequest{Workload: "fir", Machine: "cmp"}); err != nil {
		t.Fatalf("RunBody: %v", err)
	}
	if !sawTimeout.Load() {
		t.Fatal("context deadline did not propagate as timeout_ms")
	}
}

func TestSweepStream(t *testing.T) {
	body := strings.Join([]string{
		`{"index":0,"workload":"fir","machine":"cmp","result":{"mips":1}}`,
		`{"index":1,"workload":"fir","machine":"vec","error":{"code":"simulation_failed","message":"boom","cell":"fir/vec"}}`,
		`{"done":true,"cells":2,"errors":1}`,
	}, "\n") + "\n"
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, body)
	}))
	defer srv.Close()

	c := New(fastCfg(srv.URL))
	var cells []api.SweepCell
	trailer, err := c.Sweep(context.Background(), api.SweepRequest{
		Workloads: []string{"fir"}, Machines: []string{"cmp", "vec"},
	}, func(cell api.SweepCell) error {
		cells = append(cells, cell)
		return nil
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if trailer.Cells != 2 || trailer.Errors != 1 || !trailer.Done {
		t.Fatalf("trailer = %+v", trailer)
	}
	if len(cells) != 2 {
		t.Fatalf("streamed %d cells, want 2", len(cells))
	}
	if cells[0].Error != nil || cells[1].Error == nil {
		t.Fatalf("cell error placement wrong: %+v", cells)
	}
	if cells[1].Error.Cell != "fir/vec" {
		t.Fatalf("error cell = %q", cells[1].Error.Cell)
	}
}

func TestSweepTruncationDetected(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		// One cell line, then the stream dies without a trailer.
		fmt.Fprintln(w, `{"index":0,"workload":"fir","machine":"cmp","result":{"mips":1}}`)
	}))
	defer srv.Close()

	c := New(fastCfg(srv.URL))
	seen := 0
	_, err := c.Sweep(context.Background(), api.SweepRequest{
		Workloads: []string{"fir"}, Machines: []string{"cmp"},
	}, func(api.SweepCell) error { seen++; return nil })
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("error = %v, want ErrTruncated", err)
	}
	if seen != 1 {
		t.Fatalf("callback saw %d cells before truncation, want 1", seen)
	}
	// A delivered cell line makes every later failure final: a retry
	// would replay cells to the callback.
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want 1 (a started stream must not retry)", hits.Load())
	}
}

// TestSweepRetriesBeforeFirstLine: Sweep runs under the same retry loop
// as RunBody, so a transient answer before the stream starts retries.
func TestSweepRetriesBeforeFirstLine(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "warming", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"index":0,"workload":"fir","machine":"cmp","result":{"mips":1}}`)
		fmt.Fprintln(w, `{"done":true,"cells":1,"errors":0}`)
	}))
	defer srv.Close()

	cfg := fastCfg(srv.URL)
	reg := stats.New()
	cfg.Registry = reg
	c := New(cfg)
	seen := 0
	trailer, err := c.Sweep(context.Background(), api.SweepRequest{
		Workloads: []string{"fir"}, Machines: []string{"cmp"},
	}, func(api.SweepCell) error { seen++; return nil })
	if err != nil || trailer.Cells != 1 || seen != 1 {
		t.Fatalf("Sweep = %+v, %v after %d cells; want 1 cell, no error", trailer, err, seen)
	}
	snap := reg.Snapshot()
	if hits.Load() != 2 || snap.Uint("retries") != 1 || snap.Uint("requests") != 1 {
		t.Fatalf("hits=%d retries=%d requests=%d, want 2/1/1", hits.Load(), snap.Uint("retries"), snap.Uint("requests"))
	}
}

// TestTrailingSlashBaseURL: a peer URL written with a trailing slash
// names the same peer. Joined verbatim it would produce "//v1/run",
// which http.ServeMux answers with a 301 that the Go client re-sends as
// a body-less GET.
func TestTrailingSlashBaseURL(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintln(w, `{"error":{"code":"bad_request","message":"missing workload"}}`)
			return
		}
		fmt.Fprintln(w, `{"workload":"fir"}`)
	})
	mux.HandleFunc("/v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"index":0,"workload":"fir","machine":"cmp","result":{"mips":1}}`)
		fmt.Fprintln(w, `{"done":true,"cells":1,"errors":0}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := New(fastCfg(srv.URL + "/"))
	body, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	if err != nil || string(body) != `{"workload":"fir"}`+"\n" {
		t.Fatalf("RunBody via trailing-slash URL = %q, %v", body, err)
	}
	trailer, err := c.Sweep(context.Background(), api.SweepRequest{
		Workloads: []string{"fir"}, Machines: []string{"cmp"},
	}, nil)
	if err != nil || trailer.Cells != 1 {
		t.Fatalf("Sweep via trailing-slash URL = %+v, %v", trailer, err)
	}
}

func TestRetryOnConnectionFailure(t *testing.T) {
	// A peer that is down entirely: every attempt is a connect error,
	// all retries burn, and the logical call fails.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	base := srv.URL
	srv.Close() // nothing listens here any more

	cfg := fastCfg(base)
	cfg.MaxRetries = 2
	reg := stats.New()
	cfg.Registry = reg
	c := New(cfg)
	_, err := c.RunBody(context.Background(), api.RunRequest{Workload: "fir", Machine: "cmp"})
	if err == nil {
		t.Fatal("want connect error")
	}
	snap := reg.Snapshot()
	if snap.Uint("retries") != 2 || snap.Uint("failures") != 1 {
		t.Fatalf("retries=%d failures=%d, want 2/1", snap.Uint("retries"), snap.Uint("failures"))
	}
}
