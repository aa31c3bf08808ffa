package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/fleet"
	"vlt/internal/netfault"
	"vlt/internal/stats"
	"vlt/internal/vltclient"
)

// TestChaosSweepFleet is the end-to-end acceptance test for the fault
// model: a paper-grid sweep fans out across a 3-node in-process fleet
// where one peer sits behind a chaos proxy injecting ~20% faults and
// the other answers every other endpoint but refuses every simulation.
// The sweep must complete with every cell byte-identical to a
// single-node run, the coordinator's registry must show the retries,
// breaker trips and local fallbacks that absorbed the faults, and
// draining afterwards must leave no goroutine or flight slot behind.
func TestChaosSweepFleet(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Peer B: a healthy node reached only through the chaos proxy.
	nodeB := fakeServer(Config{Jobs: 4})
	srvB := httptest.NewServer(nodeB.Handler())
	defer srvB.Close()
	proxy, err := netfault.New(netfault.Config{
		Target:   strings.TrimPrefix(srvB.URL, "http://"),
		Seed:     7,
		Drop:     0.1, // ~20% of connections fault one way or the other
		Inject:   0.1,
		Registry: stats.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Peer C: reports itself ready, 503s every simulation. Its
	// cells exercise the retry budget, trip the breaker, and must all
	// be recomputed locally.
	nodeC := fakeServer(Config{Jobs: 4})
	srvC := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":{"code":"unavailable","message":"chaos: refusing work"}}`)
			return
		}
		nodeC.Handler().ServeHTTP(w, r)
	}))
	defer srvC.Close()

	// Node A: the coordinator under test.
	coord := fakeServer(Config{Jobs: 4})
	fl := fleet.New(fleet.Config{
		Peers: []string{"http://" + proxy.Addr(), srvC.URL},
		Client: vltclient.Config{
			// Keep-alives off so the proxy's per-connection fault
			// schedule is per-request, and a tight retry/breaker budget
			// so the chaos is absorbed quickly and visibly.
			HTTPClient:       &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second},
			MaxRetries:       1,
			BaseBackoff:      time.Millisecond,
			MaxBackoff:       4 * time.Millisecond,
			BreakerThreshold: 2,
			BreakerCooldown:  time.Minute,
		},
		Registry: coord.Registry().Scope("fleet"),
	})
	coord.SetFleet(fl)

	req := api.SweepRequest{
		Workloads: []string{"mxm", "sage", "radix"},
		Machines:  []string{"base", "CMT", "V2-CMP"},
		Scales:    []int{1, 2},
	}
	cellsWant := req.Cells()

	// Count the cells each member owns, using the same key the server
	// shards by, so the metric assertions below are exact.
	owned := make([]int, 3)
	for _, c := range cellsWant {
		key, err := vlt.CellKey(c.Workload, vlt.Machine(c.Machine), c.Options())
		if err != nil {
			t.Fatal(err)
		}
		owned[fl.Owner(key)]++
	}
	for i, n := range owned {
		if n == 0 {
			t.Fatalf("degenerate shard map: member %d owns no cells (%v)", i, owned)
		}
	}

	// The baseline: the same grid on an identical single node.
	single := fakeServer(Config{Jobs: 4})
	_, want, wantTrailer := postSweep(t, single, req)
	if wantTrailer == nil || wantTrailer.Errors != 0 {
		t.Fatalf("single-node trailer = %+v", wantTrailer)
	}

	// The sweep under chaos.
	rec, got, trailer := postSweep(t, coord, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", rec.Code, rec.Body)
	}
	if trailer == nil || !trailer.Done || trailer.Cells != len(cellsWant) || trailer.Errors != 0 {
		t.Fatalf("chaos trailer = %+v, want done cells=%d errors=0", trailer, len(cellsWant))
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells under chaos, %d single-node", len(got), len(want))
	}
	for i := range got {
		if got[i].Error != nil {
			t.Fatalf("cell %d surfaced error %+v despite fallback", i, got[i].Error)
		}
		if !bytes.Equal(got[i].Result, want[i].Result) {
			t.Fatalf("cell %d (%s/%s@x%d): fleet body differs from single-node body",
				i, got[i].Workload, got[i].Machine, got[i].Scale)
		}
	}

	// Routing accounting: every cell took exactly one of the three
	// routes, locally-owned cells never left the node, and every cell
	// owned by the refusing peer C came back as a local fallback.
	snap := coord.Registry().Snapshot()
	local := snap.Uint("fleet.local")
	remote := snap.Uint("fleet.remote")
	fallback := snap.Uint("fleet.fallback")
	if local+remote+fallback != uint64(len(cellsWant)) {
		t.Fatalf("local %d + remote %d + fallback %d != %d cells", local, remote, fallback, len(cellsWant))
	}
	if local != uint64(owned[0]) {
		t.Fatalf("local = %d, want %d (owned[0])", local, owned[0])
	}
	if fallback < uint64(owned[2]) {
		t.Fatalf("fallback = %d, want >= %d (all of refusing peer C's cells)", fallback, owned[2])
	}
	if remote == 0 {
		t.Fatal("no cell was computed remotely; the chaos absorbed the whole fleet")
	}
	// The chaos was visible, not silently swallowed: peer C burned its
	// retry budget and tripped its breaker.
	if v := snap.Uint("fleet.peer1.retries"); v == 0 {
		t.Fatal("fleet.peer1.retries = 0, want > 0")
	}
	if v := snap.Uint("fleet.peer1.breaker.trips"); v == 0 {
		t.Fatal("fleet.peer1.breaker.trips = 0, want > 0")
	}
	if v := snap.Uint("fleet.peer0.requests"); v == 0 {
		t.Fatal("fleet.peer0.requests = 0: proxy path never exercised")
	}

	// A second, warm sweep is served from cache: no new routing.
	_, _, warm := postSweep(t, coord, req)
	if warm == nil || warm.Errors != 0 {
		t.Fatalf("warm trailer = %+v", warm)
	}
	snap = coord.Registry().Snapshot()
	if l, r, f := snap.Uint("fleet.local"), snap.Uint("fleet.remote"), snap.Uint("fleet.fallback"); l+r+f != uint64(len(cellsWant)) {
		t.Fatalf("warm sweep recomputed cells: local %d remote %d fallback %d", l, r, f)
	}

	// Drain: readiness flips while liveness stays up, and nothing leaks.
	coord.BeginDrain()
	if rec := get(t, coord, "/healthz?ready=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining readiness: status %d, want 503", rec.Code)
	}
	if rec := get(t, coord, "/healthz"); rec.Code != http.StatusOK {
		t.Fatal("draining liveness: want 200")
	}
	waitFor(t, "flight drained", func() bool { return coord.flight.Inflight() == 0 })
	if v := coord.Registry().Snapshot().Uint("serve.flight.inflight"); v != 0 {
		t.Fatalf("serve.flight.inflight = %d after drain, want 0", v)
	}

	proxy.Close()
	srvB.Close()
	srvC.Close()
	waitFor(t, "goroutines back to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}

// TestFleetChecksPeerBodies: a peer that answers 200 with a body that is
// not in canonical form (not JSON at all, indented JSON, or a raw '<'
// that json.Marshal would escape) is a failed peer call. Its cells fall
// back to the local render, the sweep completes with its trailer and
// the single node's bytes, and a later /v1/run serves the local bytes
// the fallback cached, never the peer's.
func TestFleetChecksPeerBodies(t *testing.T) {
	req := api.SweepRequest{Workloads: []string{"mxm", "sage", "radix"}, Machines: []string{"base", "V2-CMP"}}
	single := fakeServer(Config{})
	_, want, _ := postSweep(t, single, req)
	for _, c := range []struct {
		name   string
		mangle func(body []byte) []byte
	}{
		{"invalid JSON", func(b []byte) []byte { return b[:len(b)/2] }},
		{"indented", func(b []byte) []byte {
			var out bytes.Buffer
			if err := json.Indent(&out, b, "", "  "); err != nil {
				t.Error(err)
			}
			return out.Bytes()
		}},
		{"raw <", func(b []byte) []byte { return bytes.Replace(b, []byte(`"workload":"`), []byte(`"workload":"<`), 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				rec := httptest.NewRecorder()
				single.Handler().ServeHTTP(rec, r)
				w.Write(c.mangle(rec.Body.Bytes()))
			}))
			defer peer.Close()
			coord := fakeServer(Config{})
			fl := fleet.New(fleet.Config{Peers: []string{peer.URL}, Registry: coord.Registry().Scope("fleet")})
			coord.SetFleet(fl)
			var owned []api.RunRequest
			for _, cell := range req.Cells() {
				if key, _ := vlt.CellKey(cell.Workload, vlt.Machine(cell.Machine), cell.Options()); fl.Owner(key) == 1 {
					owned = append(owned, cell)
				}
			}
			if len(owned) == 0 {
				t.Fatal("the peer owns no cell of the grid")
			}

			rec, got, trailer := postSweep(t, coord, req)
			if trailer == nil || trailer.Cells != len(want) || trailer.Errors != 0 {
				t.Fatalf("sweep: status %d, trailer %+v; want %d cells, no errors", rec.Code, trailer, len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i].Result, want[i].Result) {
					t.Fatalf("cell %d (%s/%s): result %s, want the local body %s", i, got[i].Workload, got[i].Machine, got[i].Result, want[i].Result)
				}
			}
			snap := coord.Registry().Snapshot()
			if f, r := snap.Uint("fleet.fallback"), snap.Uint("fleet.remote"); f != uint64(len(owned)) || r != 0 {
				t.Fatalf("fleet.fallback %d, fleet.remote %d; want %d and 0", f, r, len(owned))
			}
			for _, cell := range owned {
				target := "/v1/run?workload=" + cell.Workload + "&machine=" + cell.Machine
				a, b := get(t, coord, target), get(t, single, target)
				if a.Header().Get("X-VLT-Cache") != tierMemory || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
					t.Fatalf("%s: tier %q, body %q; want the cached local body %q", target, a.Header().Get("X-VLT-Cache"), a.Body, b.Body)
				}
			}
		})
	}
}
