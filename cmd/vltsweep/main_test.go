package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepStub serves a canned NDJSON stream on /v1/sweep.
func sweepStub(t *testing.T, lines ...string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, l := range lines {
			fmt.Fprintln(w, l)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestUsageErrors pins the exit codes for bad invocations.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{}, &out, &errb); code != 2 {
		t.Fatalf("missing grid flags: exit %d, want 2", code)
	}
	if code := run([]string{"-workloads", "mxm", "-machines", "base", "-scales", "zero"}, &out, &errb); code != 2 {
		t.Fatalf("bad scales: exit %d, want 2", code)
	}
	if code := run([]string{"-workloads", "mxm", "-machines", "base", "positional"}, &out, &errb); code != 2 {
		t.Fatalf("positional arg: exit %d, want 2", code)
	}
	errb.Reset()
	if code := run([]string{"-workloads", "mxm", "-machines", "base", "-retries", "-1"}, &out, &errb); code != 2 {
		t.Fatalf("negative -retries: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-retries") {
		t.Fatalf("negative -retries: stderr %q does not name the flag", errb.String())
	}
}

// TestRetriesBudget: -retries N makes exactly N+1 attempts against a
// server that always answers 503, so 0 means one attempt and no retry.
func TestRetriesBudget(t *testing.T) {
	for _, c := range []struct {
		retries  string
		attempts int64
	}{{"0", 1}, {"1", 2}} {
		var attempts atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		var out, errb bytes.Buffer
		code := run([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base", "-retries", c.retries}, &out, &errb)
		srv.Close()
		if code != 2 {
			t.Errorf("-retries %s: exit %d, want 2 (transport failure); stderr=%q", c.retries, code, errb.String())
		}
		if got := attempts.Load(); got != c.attempts {
			t.Errorf("-retries %s: %d attempts, want %d", c.retries, got, c.attempts)
		}
	}
}

// TestSweepTable renders a clean sweep and exits 0.
func TestSweepTable(t *testing.T) {
	srv := sweepStub(t,
		`{"index":0,"workload":"mxm","machine":"base","result":{"workload":"mxm","machine":"base","cycles":1234,"ipc":1.5,"util":{"busy_pct":80},"verified":true}}`,
		`{"done":true,"cells":1,"errors":0}`,
	)
	var out, errb bytes.Buffer
	code := run([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d; stderr=%q", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "mxm/base") || !strings.Contains(s, "cycles=1234") {
		t.Fatalf("table missing cell row:\n%s", s)
	}
	if !strings.Contains(s, "1 cells, 0 errors") {
		t.Fatalf("missing summary:\n%s", s)
	}
}

// TestSweepErrorCellExitsNonzero: a failing cell renders its typed error
// and flips the exit code without killing the sweep.
func TestSweepErrorCellExitsNonzero(t *testing.T) {
	srv := sweepStub(t,
		`{"index":0,"workload":"mxm","machine":"base","result":{"workload":"mxm","machine":"base","cycles":7,"verified":true}}`,
		`{"index":1,"workload":"mxm","machine":"bogus","error":{"code":"simulation_failed","message":"boom","cell":"mxm/bogus"}}`,
		`{"done":true,"cells":2,"errors":1}`,
	)
	var out, errb bytes.Buffer
	code := run([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base,bogus"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr=%q", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "ERROR simulation_failed: boom") {
		t.Fatalf("missing error row:\n%s", s)
	}
	if !strings.Contains(s, "2 cells, 1 errors") {
		t.Fatalf("missing summary:\n%s", s)
	}
}

// TestSweepJSONPassthrough re-emits the cell lines verbatim-ish.
func TestSweepJSONPassthrough(t *testing.T) {
	srv := sweepStub(t,
		`{"index":0,"workload":"mxm","machine":"base","result":{"cycles":9}}`,
		`{"done":true,"cells":1,"errors":0}`,
	)
	var out, errb bytes.Buffer
	code := run([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base", "-json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d; stderr=%q", code, errb.String())
	}
	if !strings.Contains(out.String(), `"result":{"cycles":9}`) {
		t.Fatalf("json passthrough missing result:\n%s", out.String())
	}
}

// TestSweepTruncationExits2: a stream with no trailer is a transport
// failure, not a quiet success.
func TestSweepTruncationExits2(t *testing.T) {
	srv := sweepStub(t,
		`{"index":0,"workload":"mxm","machine":"base","result":{"cycles":9}}`,
	)
	var out, errb bytes.Buffer
	code := run([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr=%q", code, errb.String())
	}
	if !strings.Contains(errb.String(), "truncated") {
		t.Fatalf("stderr does not mention truncation:\n%s", errb.String())
	}
}

// TestMalformedBodyExitsNonzero: vltclient passes a cell's body through
// unparsed, so vltsweep is where a body that is not JSON is refused —
// by decoding it in table mode and by re-encoding it under -json. Either
// way the sweep fails with exit 2 and prints no cell for it.
func TestMalformedBodyExitsNonzero(t *testing.T) {
	srv := sweepStub(t,
		`{"index":0,"workload":"mxm","machine":"base","result":{"cycles":9,}}`,
		`{"done":true,"cells":1,"errors":0}`,
	)
	for _, mode := range [][]string{nil, {"-json"}} {
		var out, errb bytes.Buffer
		args := append([]string{"-server", srv.URL, "-workloads", "mxm", "-machines", "base"}, mode...)
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2; stdout=%q stderr=%q", mode, code, out.String(), errb.String())
		}
		if strings.Contains(out.String(), "cycles") {
			t.Errorf("%v: printed the malformed cell:\n%s", mode, out.String())
		}
	}
}
