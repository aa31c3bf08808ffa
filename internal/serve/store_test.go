package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"vlt"
	"vlt/internal/store"
)

// newStoreServer builds a server backed by a fresh store opened at dir.
func newStoreServer(t *testing.T, dir string) *Server {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Store: st})
}

// TestDiskTierServesAndPromotes proves the second cache tier: a body
// rendered by one server instance is served from disk by a fresh
// instance sharing the directory (X-VLT-Cache: disk, no simulation),
// and that disk hit promotes the entry into memory for the next
// request.
func TestDiskTierServesAndPromotes(t *testing.T) {
	dir := t.TempDir()
	target := "/v1/run?workload=mxm&machine=base"

	a := newStoreServer(t, dir)
	cold := get(t, a, target)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.Code, cold.Body)
	}
	if h := cold.Header().Get("X-VLT-Cache"); h != "miss" {
		t.Fatalf("cold X-VLT-Cache = %q, want miss", h)
	}

	// A fresh server on the same directory has an empty memory cache;
	// the disk tier must answer without a simulation.
	b := newStoreServer(t, dir)
	disk := get(t, b, target)
	if disk.Code != http.StatusOK {
		t.Fatalf("disk status %d: %s", disk.Code, disk.Body)
	}
	if h := disk.Header().Get("X-VLT-Cache"); h != "disk" {
		t.Fatalf("restart X-VLT-Cache = %q, want disk", h)
	}
	if !bytes.Equal(disk.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("disk-served body differs from the originally rendered body")
	}
	snap := b.Registry().Snapshot()
	if got := snap.Uint("serve.flight.executed"); got != 0 {
		t.Fatalf("disk hit ran %d simulations, want 0", got)
	}
	if got := snap.Uint("serve.store.hits"); got != 1 {
		t.Fatalf("serve.store.hits = %d, want 1", got)
	}

	// The disk hit promoted the entry: next request is a memory hit.
	hot := get(t, b, target)
	if h := hot.Header().Get("X-VLT-Cache"); h != "hit" {
		t.Fatalf("post-promotion X-VLT-Cache = %q, want hit", h)
	}
	if !bytes.Equal(hot.Body.Bytes(), cold.Body.Bytes()) {
		t.Fatal("promoted body differs from the originally rendered body")
	}
}

// TestRestartServesGridFromStore is the restart contract end to end: a
// server populates the store with the full workload x machine grid, and
// a fresh server on the same directory answers every grid cell
// byte-identically without a single simulation — from disk at first
// touch, then from memory once the disk hit has promoted it.
func TestRestartServesGridFromStore(t *testing.T) {
	dir := t.TempDir()
	a := newStoreServer(t, dir)
	grid := map[string][]byte{}
	for _, w := range vlt.Workloads() {
		for _, m := range vlt.Machines() {
			if err := vlt.VetCell(w, m, vlt.Options{}); err != nil {
				continue // invalid combo (vector workload, scalar machine)
			}
			target := "/v1/run?workload=" + w + "&machine=" + string(m)
			rec := get(t, a, target)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
			}
			grid[target] = append([]byte(nil), rec.Body.Bytes()...)
		}
	}

	b := newStoreServer(t, dir)
	for target, want := range grid {
		for _, tier := range []string{"disk", "hit"} {
			rec := get(t, b, target)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s after restart: status %d: %s", target, rec.Code, rec.Body)
			}
			if h := rec.Header().Get("X-VLT-Cache"); h != tier {
				t.Fatalf("%s after restart: X-VLT-Cache = %q, want %s", target, h, tier)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s after restart (%s): body differs from the pre-restart body", target, tier)
			}
		}
	}
	snap := b.Registry().Snapshot()
	if got := snap.Uint("serve.flight.executed"); got != 0 {
		t.Fatalf("restart ran %d simulations, want 0", got)
	}
	if got := snap.Uint("serve.store.hits"); got != uint64(len(grid)) {
		t.Fatalf("serve.store.hits = %d, want one per grid cell (%d)", got, len(grid))
	}
}

// conditional issues one GET with an If-None-Match header.
func conditional(t *testing.T, s *Server, target, match string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", match)
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// TestETagConditionalRequests proves the revalidation contract on
// /v1/run: responses carry the key's strong ETag, a matching
// If-None-Match short-circuits to an empty 304 (counted in
// serve.http.not_modified), weak-comparison and wildcard forms match,
// and a tag minted under a different store format version revalidates
// to a full 200 — the version-bump invalidation path.
func TestETagConditionalRequests(t *testing.T) {
	s := New(Config{})
	target := "/v1/run?workload=mxm&machine=base"
	full := get(t, s, target)
	if full.Code != http.StatusOK {
		t.Fatalf("status %d: %s", full.Code, full.Body)
	}
	etag := full.Header().Get("ETag")
	key, err := vlt.CellKey("mxm", vlt.MachineBase, vlt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := store.ETag(key); etag != want {
		t.Fatalf("ETag = %q, want the cell key's store tag %q", etag, want)
	}

	for _, match := range []string{etag, "W/" + etag, `"zzz", ` + etag, "*"} {
		rec := conditional(t, s, target, match)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", match, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("If-None-Match %q: 304 carried a %d-byte body", match, rec.Body.Len())
		}
		if got := rec.Header().Get("ETag"); got != etag {
			t.Fatalf("If-None-Match %q: 304 ETag = %q, want %q", match, got, etag)
		}
	}
	snap := s.Registry().Snapshot()
	if got := snap.Uint("serve.http.not_modified"); got != 4 {
		t.Fatalf("serve.http.not_modified = %d, want 4", got)
	}

	// A tag from another format version must never 304: after a bump,
	// every client revalidation pays one full response and picks up the
	// new tag.
	stale := conditional(t, s, target, store.ETagAt(store.FormatVersion+1, key))
	if stale.Code != http.StatusOK {
		t.Fatalf("stale-version tag: status %d, want 200", stale.Code)
	}
	if !bytes.Equal(stale.Body.Bytes(), full.Body.Bytes()) {
		t.Fatal("stale-version revalidation body differs from the original")
	}
	if got := stale.Header().Get("ETag"); got != etag {
		t.Fatalf("stale-version revalidation ETag = %q, want %q", got, etag)
	}

	// Error responses never carry an ETag (there is no entity to tag).
	bad := get(t, s, "/v1/run?workload=nope&machine=base")
	if bad.Code == http.StatusOK {
		t.Fatal("unknown workload served 200")
	}
	if got := bad.Header().Get("ETag"); got != "" {
		t.Fatalf("error response carried ETag %q", got)
	}
}

// TestExperimentETag proves /v1/experiment speaks the same conditional
// protocol as /v1/run.
func TestExperimentETag(t *testing.T) {
	s := New(Config{})
	target := "/v1/experiment?name=table1"
	full := get(t, s, target)
	if full.Code != http.StatusOK {
		t.Fatalf("status %d: %s", full.Code, full.Body)
	}
	etag := full.Header().Get("ETag")
	if etag == "" {
		t.Fatal("experiment response carried no ETag")
	}
	rec := conditional(t, s, target, etag)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match on experiment: status %d, want 304", rec.Code)
	}
}
