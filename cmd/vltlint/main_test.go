package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRepoClean lints the real repository, which must be clean.
func TestRunRepoClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestRunFindings lints a fabricated module with a violation.
func TestRunFindings(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		full := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vlt\n\ngo 1.22\n")
	write("internal/core/bad.go", `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)

	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "wall-clock") {
		t.Errorf("stdout missing wall-clock finding:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "1 finding(s)") {
		t.Errorf("stderr missing summary:\n%s", errOut.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./no/such/pkg"}, &out, &errOut); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2", code)
	}
}

// writeModule materializes a fabricated module for exit-code fixtures.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module vlt\n\ngo 1.22\n"
	for rel, content := range files {
		full := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRunJSON is the -json smoke test: a clean run emits an empty
// findings array and exit 0; a dirty run carries the finding fields
// and per-rule counts.
func TestRunJSON(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/core/ok.go": "package core\n\nfunc Ok() {}\n",
	})
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "-json", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("clean module: exit %d\nstderr: %s", code, errOut.String())
	}
	var clean struct {
		Findings []json.RawMessage  `json:"findings"`
		Counts   map[string]float64 `json:"counts"`
	}
	if err := json.Unmarshal([]byte(out.String()), &clean); err != nil {
		t.Fatalf("clean output is not JSON: %v\n%s", err, out.String())
	}
	if clean.Findings == nil || len(clean.Findings) != 0 {
		t.Errorf("clean findings should be an empty array: %s", out.String())
	}

	root = writeModule(t, map[string]string{
		"internal/core/bad.go": `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-root", root, "-json", "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("dirty module: exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	var dirty struct {
		Findings []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		} `json:"findings"`
		Counts map[string]float64 `json:"counts"`
	}
	if err := json.Unmarshal([]byte(out.String()), &dirty); err != nil {
		t.Fatalf("dirty output is not JSON: %v\n%s", err, out.String())
	}
	if len(dirty.Findings) != 1 || dirty.Findings[0].Rule != "wall-clock" ||
		dirty.Findings[0].File != "internal/core/bad.go" || dirty.Findings[0].Line != 5 {
		t.Errorf("unexpected findings: %s", out.String())
	}
	if dirty.Counts["lint.findings.wall-clock"] != 1 {
		t.Errorf("missing per-rule count: %s", out.String())
	}
}

// statsStub backs the metrics-registration fixtures.
const statsStub = `package stats

type Registry struct{}

func (r *Registry) Counter(name string, p *uint64) {}
`

// TestRunMetricsRegressionExit: deleting a registration entry from a
// registerMetrics method makes vltlint exit non-zero (acceptance
// criterion for the metrics-registered pass).
func TestRunMetricsRegressionExit(t *testing.T) {
	complete := map[string]string{
		"internal/stats/stats.go": statsStub,
		"internal/report/proxy.go": `package report

import "vlt/internal/stats"

type proxy struct {
	accepted uint64
	dropped  uint64
}

func (p *proxy) registerMetrics(r *stats.Registry) {
	r.Counter("accepted", &p.accepted)
	r.Counter("dropped", &p.dropped)
}
`,
	}
	root := writeModule(t, complete)
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("complete registration: exit %d\n%s", code, out.String())
	}

	// Delete one registration entry: the run must now fail.
	broken := map[string]string{
		"internal/stats/stats.go": complete["internal/stats/stats.go"],
		"internal/report/proxy.go": strings.Replace(complete["internal/report/proxy.go"],
			"\tr.Counter(\"dropped\", &p.dropped)\n", "", 1),
	}
	root = writeModule(t, broken)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("deleted registration: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "metrics-registered") {
		t.Errorf("stdout missing metrics-registered finding:\n%s", out.String())
	}
}

// TestRunLockGuardRegressionExit: moving a blocking send inside the
// locked region makes vltlint exit non-zero (acceptance criterion for
// the lock-blocking pass).
func TestRunLockGuardRegressionExit(t *testing.T) {
	src := func(body string) string {
		return `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) Flush() {
` + body + `}
`
	}
	root := writeModule(t, map[string]string{"internal/report/box.go": src(
		"\tb.mu.Lock()\n\tn := b.n\n\tb.mu.Unlock()\n\tb.ch <- n\n")})
	var out, errOut strings.Builder
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("send after unlock: exit %d\n%s", code, out.String())
	}

	// Send before unlocking: the run must now fail.
	root = writeModule(t, map[string]string{"internal/report/box.go": src(
		"\tb.mu.Lock()\n\tb.ch <- b.n\n\tb.mu.Unlock()\n")})
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-root", root, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("send under lock: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "lock-blocking") {
		t.Errorf("stdout missing lock-blocking finding:\n%s", out.String())
	}
}
