package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"vlt/internal/api"
	"vlt/internal/stats"
	"vlt/internal/vltclient"
)

// keyOwnedBy finds a cell key string the coordinator routes to the
// given member index (0 = local). The keys are arbitrary — ownership is
// a pure function of the key bytes.
func keyOwnedBy(t *testing.T, c *Coordinator, member int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("cell-%d", i)
		if c.Owner(key) == member {
			return key
		}
	}
	t.Fatalf("no key found for member %d", member)
	return ""
}

func fastClient() vltclient.Config {
	return vltclient.Config{
		MaxRetries:  1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}
}

func TestOwnerDeterministicAndCoversAllMembers(t *testing.T) {
	c := New(Config{Peers: []string{"http://a", "http://b"}})
	seen := make(map[int]int)
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("cell-%d", i)
		o := c.Owner(key)
		if o < 0 || o > 2 {
			t.Fatalf("Owner(%q) = %d, out of range", key, o)
		}
		if o2 := c.Owner(key); o2 != o {
			t.Fatalf("Owner(%q) flapped: %d then %d", key, o, o2)
		}
		seen[o]++
	}
	for m := 0; m <= 2; m++ {
		if seen[m] == 0 {
			t.Fatalf("member %d owns no keys out of 300: %v", m, seen)
		}
	}
}

func TestNoPeersComputesLocally(t *testing.T) {
	reg := stats.New()
	c := New(Config{Registry: reg})
	body, err := c.Compute(context.Background(), "anything", api.RunRequest{},
		func() ([]byte, error) { return []byte("local\n"), nil })
	if err != nil || string(body) != "local\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if got := reg.Snapshot().Uint("local"); got != 1 {
		t.Fatalf("local counter = %d, want 1", got)
	}
}

func TestRemoteCellRoutesToPeer(t *testing.T) {
	var runs int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/run" {
			t.Errorf("coordinator requested %s; it sends cells and nothing else", r.URL.Path)
			http.NotFound(w, r)
			return
		}
		runs++
		fmt.Fprintln(w, `{"workload":"fir","machine":"cmp","mips":7}`)
	}))
	defer srv.Close()

	reg := stats.New()
	c := New(Config{Peers: []string{srv.URL}, Client: fastClient(), Registry: reg})
	key := keyOwnedBy(t, c, 1)
	local := func() ([]byte, error) { t.Fatal("local fallback used for a healthy peer"); return nil, nil }
	for i := 0; i < 5; i++ {
		body, err := c.Compute(context.Background(), key, api.RunRequest{Workload: "fir", Machine: "cmp"}, local)
		if err != nil {
			t.Fatalf("Compute: %v", err)
		}
		if string(body) != `{"workload":"fir","machine":"cmp","mips":7}`+"\n" {
			t.Fatalf("body = %q", body)
		}
	}
	if runs != 5 {
		t.Fatalf("peer served %d runs, want 5", runs)
	}
	snap := reg.Snapshot()
	if snap.Uint("remote") != 5 || snap.Uint("fallback") != 0 {
		t.Fatalf("counters: %s", snap)
	}
	if snap.Uint("peer0.requests") != 5 {
		t.Fatalf("peer0.requests = %d, want 5", snap.Uint("peer0.requests"))
	}
}

func TestDeadPeerFallsBackLocally(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	base := srv.URL
	srv.Close() // nothing listens: every run fails

	reg := stats.New()
	c := New(Config{Peers: []string{base}, Client: fastClient(), Registry: reg})
	key := keyOwnedBy(t, c, 1)
	body, err := c.Compute(context.Background(), key, api.RunRequest{},
		func() ([]byte, error) { return []byte("recomputed\n"), nil })
	if err != nil || string(body) != "recomputed\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if got := reg.Snapshot().Uint("fallback"); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
}

// TestUnansweringPeerFallsBackBeforeDeadline: a peer that accepts the
// connection but never answers must not hold a cell until the caller's
// deadline. The call gives up in time for the local fallback, and the
// breaker hears it as a failure.
func TestUnansweringPeerFallsBackBeforeDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer srv.Close()
	defer close(release)

	reg := stats.New()
	c := New(Config{Peers: []string{srv.URL}, Client: fastClient(), Registry: reg})
	key := keyOwnedBy(t, c, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	body, err := c.Compute(ctx, key, api.RunRequest{},
		func() ([]byte, error) { return []byte("local\n"), nil })
	if err != nil || string(body) != "local\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if ctx.Err() != nil {
		t.Fatalf("Compute returned after the caller's deadline")
	}
	snap := reg.Snapshot()
	if snap.Uint("fallback") != 1 || snap.Uint("peer0.failures") != 1 {
		t.Fatalf("want fallback 1 and peer0.failures 1: %s", snap)
	}
}

// TestOpenBreakerFallsBackWithoutCallingPeer: the peer's breaker is its
// only health verdict. Once failures open it, the peer's cells fall back
// locally and fail fast, without a single request reaching the peer.
func TestOpenBreakerFallsBackWithoutCallingPeer(t *testing.T) {
	var runs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		runs.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	cfg := fastClient()
	cfg.MaxRetries = -1
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Hour
	reg := stats.New()
	c := New(Config{Peers: []string{srv.URL}, Client: cfg, Registry: reg})
	key := keyOwnedBy(t, c, 1)
	compute := func() {
		t.Helper()
		body, err := c.Compute(context.Background(), key, api.RunRequest{},
			func() ([]byte, error) { return []byte("x\n"), nil })
		if err != nil || string(body) != "x\n" {
			t.Fatalf("Compute = %q, %v", body, err)
		}
	}
	for i := 0; i < cfg.BreakerThreshold; i++ {
		compute()
	}
	if got := reg.Snapshot().Uint("peer0.breaker.trips"); got != 1 {
		t.Fatalf("peer0.breaker.trips = %d after %d failures, want 1", got, cfg.BreakerThreshold)
	}
	before := runs.Load()
	for i := 0; i < 5; i++ {
		compute()
	}
	if got := runs.Load(); got != before {
		t.Fatalf("peer saw %d requests with its breaker open, want 0", got-before)
	}
	snap := reg.Snapshot()
	if snap.Uint("fallback") != uint64(cfg.BreakerThreshold+5) || snap.Uint("remote") != 0 {
		t.Fatalf("counters: %s", snap)
	}
	if got := snap.Uint("peer0.breaker.rejects"); got != 5 {
		t.Fatalf("peer0.breaker.rejects = %d, want 5", got)
	}
}

func TestPeerErrorFallsBackAfterRetries(t *testing.T) {
	var runs int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		runs++
		http.Error(w, "flaky", http.StatusBadGateway)
	}))
	defer srv.Close()

	reg := stats.New()
	c := New(Config{Peers: []string{srv.URL}, Client: fastClient(), Registry: reg})
	key := keyOwnedBy(t, c, 1)
	body, err := c.Compute(context.Background(), key, api.RunRequest{},
		func() ([]byte, error) { return []byte("fallback\n"), nil })
	if err != nil || string(body) != "fallback\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if runs != 2 { // first attempt + MaxRetries(1)
		t.Fatalf("peer saw %d run attempts, want 2", runs)
	}
	if got := reg.Snapshot().Uint("fallback"); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}
}
