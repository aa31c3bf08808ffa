package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/store"
	"vlt/internal/vltclient"
	"vlt/internal/workloads"
)

// benchRun issues one /v1/run request through the full handler stack —
// a GET of benchTarget, or a POST of benchBody when post is set — and
// fails the benchmark on any non-200.
func benchRun(b *testing.B, s *Server, post bool) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, benchTarget, nil)
	if post {
		req = httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(benchBody))
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// benchTarget and benchBody are the same cell as a GET and as the JSON
// body the fleet coordinator POSTs.
const (
	benchTarget = "/v1/run?workload=mxm&machine=base"
	benchBody   = `{"workload":"mxm","machine":"base"}`
)

// BenchmarkServeCellHot measures the cache-hit path: request parsing,
// the cell key and its ETag, the LRU lookup and the response write — no
// simulation. This is the daemon's steady-state cost per served cell.
func BenchmarkServeCellHot(b *testing.B) {
	s := New(Config{})
	benchRun(b, s, false) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, s, false)
	}
}

// BenchmarkServeCellHotPost is BenchmarkServeCellHot in the POST form
// the fleet coordinator (and the serve-hot benchmark workload) sends:
// the JSON decode replaces the query parse.
func BenchmarkServeCellHotPost(b *testing.B) {
	s := New(Config{})
	benchRun(b, s, true) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRun(b, s, true)
	}
}

// BenchmarkServeCellCold measures the cache-miss path: vet, admission,
// one full simulation, rendering and cache fill. The hot/cold ratio is
// the cache's value proposition; record both in results.txt.
func BenchmarkServeCellCold(b *testing.B) {
	s := New(Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		benchRun(b, s, false)
	}
}

// BenchmarkServeCellDisk measures the middle tier: memory cache empty,
// persistent store warm — one disk read, CRC verification and the
// promotion into memory per request. This is the per-cell cost of a
// restart served from -store, and the number that makes warm restarts
// worthwhile: it should sit orders of magnitude under Cold and within
// an order of magnitude of Hot.
func BenchmarkServeCellDisk(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Store: st})
	benchRun(b, s, false) // render once: fills memory and disk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.cache.Reset()
		benchRun(b, s, false)
	}
}

// gridHalves splits the paper grid's 78 runnable cells into two sweeps:
// the vector workloads on the vector machines, and the scalar-parallel
// workloads on every machine.
func gridHalves() [2]api.SweepRequest {
	var vec, sca api.SweepRequest
	for _, w := range workloads.All() {
		if w.Class == workloads.ScalarParallel {
			sca.Workloads = append(sca.Workloads, w.Name)
		} else {
			vec.Workloads = append(vec.Workloads, w.Name)
		}
	}
	for _, m := range vlt.Machines() {
		sca.Machines = append(sca.Machines, string(m))
		if m != vlt.MachineCMT && m != vlt.MachineVLTScalar {
			vec.Machines = append(vec.Machines, string(m))
		}
	}
	return [2]api.SweepRequest{vec, sca}
}

// BenchmarkSweepFromDisk measures a restart served from disk, the
// serving path's read side end to end: each iteration opens a filled
// store, starts a fresh server over it and sweeps both grid halves
// through vltclient. Every cell is a disk read; nothing simulates. The
// cost is the store's open and reads, the sweep writer's encode and the
// client's decode of every line.
func BenchmarkSweepFromDisk(b *testing.B) {
	dir := b.TempDir()
	halves := gridHalves()
	sweep := func(st *store.Store) {
		srv := httptest.NewServer(New(Config{Store: st}).Handler())
		defer srv.Close()
		hc := &http.Client{Transport: &http.Transport{}}
		defer hc.CloseIdleConnections()
		c := vltclient.New(vltclient.Config{BaseURL: srv.URL, HTTPClient: hc, MaxRetries: -1})
		for _, req := range halves {
			n := 0
			tr, err := c.Sweep(context.Background(), req, func(line api.SweepCell) error {
				if line.Error != nil {
					return line.Error
				}
				n++
				return nil
			})
			if err != nil || tr.Errors != 0 || n != len(req.Cells()) {
				b.Fatalf("sweep: %d cells, trailer %+v, %v", n, tr, err)
			}
		}
	}
	open := func() *store.Store {
		st, err := store.Open(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	sweep(open()) // fill the store: the only simulations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep(open())
	}
}
