package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vlt/internal/store"
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
// the memoized key, the LRU lookup and the response write — no
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
