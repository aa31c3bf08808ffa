package vlt_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vlt"
	"vlt/internal/serve"
)

// TestServeExperimentsHoldJobsBound: concurrent /v1/experiment requests
// draw their cells from the daemon's one set of Jobs slots, so the number
// of simulations running at once never exceeds Jobs — however many
// experiments are in flight.
func TestServeExperimentsHoldJobsBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell simulation")
	}
	const jobs = 2
	var running, peak atomic.Int32
	orig := *vlt.SimulateCell
	t.Cleanup(func() { *vlt.SimulateCell = orig })
	*vlt.SimulateCell = func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) {
		n := running.Add(1)
		defer running.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(5 * time.Millisecond) // make simulations overlap reliably
		return orig(w, m, o)
	}

	s := serve.New(serve.Config{Jobs: jobs})
	names := []string{"figure6", "table4", "extphase"}
	codes := make([]int, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/experiment?name="+name, nil))
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("%s: status %d, want 200", names[i], code)
		}
	}
	switch p := peak.Load(); {
	case p > jobs:
		t.Errorf("%d simulations ran at once; Jobs bounds them at %d", p, jobs)
	case p < jobs:
		t.Errorf("at most %d simulation ran at once; the experiments never overlapped", p)
	}
}
