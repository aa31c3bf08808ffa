package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
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
	c := New(Config{})
	body, err := c.Compute(context.Background(), "anything", api.RunRequest{},
		func() ([]byte, error) { return []byte("local\n"), nil })
	if err != nil || string(body) != "local\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if c.local != 1 {
		t.Fatalf("local counter = %d, want 1", c.local)
	}
}

func TestRemoteCellRoutesToPeer(t *testing.T) {
	var runs, probes int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			probes++
			fmt.Fprintln(w, `{"status":"ready"}`)
		case "/v1/run":
			runs++
			fmt.Fprintln(w, `{"workload":"fir","machine":"cmp","mips":7}`)
		default:
			http.NotFound(w, r)
		}
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
	// 5 computes inside one TTL window: exactly one readiness probe.
	if probes != 1 {
		t.Fatalf("peer saw %d probes, want 1 (verdict must be cached)", probes)
	}
	snap := reg.Snapshot()
	if snap.Uint("remote") != 5 || snap.Uint("probes") != 1 || snap.Uint("fallback") != 0 {
		t.Fatalf("counters: %s", snap)
	}
	if snap.Uint("peer0.requests") != 5 {
		t.Fatalf("peer0.requests = %d, want 5", snap.Uint("peer0.requests"))
	}
}

func TestDeadPeerFallsBackLocally(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	base := srv.URL
	srv.Close() // nothing listens: probes and runs all fail

	c := New(Config{Peers: []string{base}, Client: fastClient()})
	key := keyOwnedBy(t, c, 1)
	body, err := c.Compute(context.Background(), key, api.RunRequest{},
		func() ([]byte, error) { return []byte("recomputed\n"), nil })
	if err != nil || string(body) != "recomputed\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if c.Fallbacks() != 1 {
		t.Fatalf("fallback counter = %d, want 1", c.Fallbacks())
	}
}

func TestDrainingPeerFallsBackAndVerdictIsCached(t *testing.T) {
	var probes int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			probes++
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":{"code":"not_ready","message":"vltd is draining"}}`)
		case "/v1/run":
			t.Error("draining peer received a cell")
		}
	}))
	defer srv.Close()

	c := New(Config{Peers: []string{srv.URL}, Client: fastClient()})
	key := keyOwnedBy(t, c, 1)
	for i := 0; i < 5; i++ {
		body, err := c.Compute(context.Background(), key, api.RunRequest{},
			func() ([]byte, error) { return []byte("x\n"), nil })
		if err != nil || string(body) != "x\n" {
			t.Fatalf("Compute = %q, %v", body, err)
		}
	}
	if probes != 1 {
		t.Fatalf("draining peer saw %d probes, want 1 (negative verdict must be cached)", probes)
	}
	if c.Fallbacks() != 5 {
		t.Fatalf("fallback counter = %d, want 5", c.Fallbacks())
	}
}

func TestPeerErrorFallsBackAfterRetries(t *testing.T) {
	var runs int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprintln(w, `{"status":"ready"}`)
		case "/v1/run":
			runs++
			http.Error(w, "flaky", http.StatusBadGateway)
		}
	}))
	defer srv.Close()

	c := New(Config{Peers: []string{srv.URL}, Client: fastClient()})
	key := keyOwnedBy(t, c, 1)
	body, err := c.Compute(context.Background(), key, api.RunRequest{},
		func() ([]byte, error) { return []byte("fallback\n"), nil })
	if err != nil || string(body) != "fallback\n" {
		t.Fatalf("Compute = %q, %v", body, err)
	}
	if runs != 2 { // first attempt + MaxRetries(1)
		t.Fatalf("peer saw %d run attempts, want 2", runs)
	}
	if c.Fallbacks() != 1 {
		t.Fatalf("fallback counter = %d, want 1", c.Fallbacks())
	}
}
