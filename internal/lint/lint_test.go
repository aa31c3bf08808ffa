package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTree materializes a fake module rooted in a temp dir. Keys are
// root-relative paths.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module vlt\n\ngo 1.22\n"
	for path, content := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func mustRun(t *testing.T, root string, patterns ...string) []Finding {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fs, err := Run(root, patterns)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func hasRule(fs []Finding, rule, file string, line int) bool {
	for _, f := range fs {
		if f.Rule == rule && f.File == file && (line < 0 || f.Line == line) {
			return true
		}
	}
	return false
}

func TestWallClock(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/clock.go": `package core

import "time"

func Cycle() int64 { return time.Now().UnixNano() }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleWallClock, "internal/core/clock.go", 5) {
		t.Errorf("missing wall-clock finding: %v", fs)
	}
}

// TestWallClockRenamedImport: the rule resolves the package identity,
// not the identifier spelling.
func TestWallClockRenamedImport(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/vm/clock.go": `package vm

import clk "time"

func Stamp() int64 { return clk.Now().UnixNano() }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleWallClock, "internal/vm/clock.go", 5) {
		t.Errorf("missing wall-clock finding for renamed import: %v", fs)
	}
}

// TestWallClockOutsideCore: the clock rules only bind the sim core.
func TestWallClockOutsideCore(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/clock.go": `package report

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("wall-clock should not fire outside core packages: %v", fs)
	}
}

func TestMathRand(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/mem/jitter.go": `package mem

import "math/rand"

func Jitter() int { return rand.Int() }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleMathRand, "internal/mem/jitter.go", 3) {
		t.Errorf("missing math-rand finding: %v", fs)
	}
}

func TestMapRange(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/tally.go": `package core

func Tally(m map[int64]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleMapRange, "internal/core/tally.go", 5) {
		t.Errorf("missing map-range finding: %v", fs)
	}
}

// TestMapRangeCrossPackageType: the map type comes from another module
// package, exercising the module-local importer.
func TestMapRangeCrossPackageType(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/stats/snap.go": `package stats

type Snapshot struct {
	Values map[string]float64
}
`,
		"internal/core/export.go": `package core

import "vlt/internal/stats"

func Export(s stats.Snapshot) float64 {
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleMapRange, "internal/core/export.go", 7) {
		t.Errorf("missing map-range finding via imported type: %v", fs)
	}
}

// TestSliceRangeClean: ranging a slice in the core is fine.
func TestSliceRangeClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/ok.go": `package core

func Sum(xs []uint64) uint64 {
	var sum uint64
	for _, v := range xs {
		sum += v
	}
	return sum
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("slice range should be clean: %v", fs)
	}
}

func TestGoroutine(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/spawn.go": `package core

func Spawn(f func()) {
	go f()
}
`,
		"internal/runner/pool.go": `package runner

func Pool(f func()) {
	go f()
}
`,
		"cmd/tool/main.go": `package main

func main() {
	go func() {}()
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleGoroutine, "internal/core/spawn.go", 4) {
		t.Errorf("missing goroutine finding in core: %v", fs)
	}
	if !hasRule(fs, RuleGoroutine, "cmd/tool/main.go", 4) {
		t.Errorf("missing goroutine finding in cmd: %v", fs)
	}
	if hasRule(fs, RuleGoroutine, "internal/runner/pool.go", -1) {
		t.Errorf("goroutine rule must exempt internal/runner: %v", fs)
	}
}

// TestGoroutineIgnoreSuppressesNothing: a goroutine finding cannot be
// suppressed, so the spawn stays flagged and its directive is itself an
// unused-ignore finding.
func TestGoroutineIgnoreSuppressesNothing(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/spawn.go": `package report

func Spawn(f func()) {
	go f() //vltlint:ignore goroutine fire and forget
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleGoroutine, "internal/report/spawn.go", 4) {
		t.Errorf("ignore directive must not suppress the goroutine finding: %v", fs)
	}
	if !hasRule(fs, RuleUnusedIgnore, "internal/report/spawn.go", 4) {
		t.Errorf("goroutine ignore directive must be reported unused: %v", fs)
	}
}

func TestIgnoreDirective(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/sorted.go": `package core

import "sort"

func Keys(m map[int64]uint64) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m { //vltlint:ignore map-range keys sorted below
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("directive should suppress the finding: %v", fs)
	}
}

// TestIgnoreDirectiveWrongRule: a directive only suppresses its named
// rule.
func TestIgnoreDirectiveWrongRule(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/bad.go": `package core

func Tally(m map[int64]uint64) uint64 {
	var sum uint64
	for _, v := range m { //vltlint:ignore wall-clock
		sum += v
	}
	return sum
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleMapRange, "internal/core/bad.go", 5) {
		t.Errorf("mismatched directive must not suppress: %v", fs)
	}
}

// TestTestFilesExempt: _test.go files are outside the contract.
func TestTestFilesExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/core.go": `package core

func Ok() {}
`,
		"internal/core/core_test.go": `package core

import "time"

func stamp() int64 {
	go func() {}()
	return time.Now().UnixNano()
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("test files should be exempt: %v", fs)
	}
}

// TestExplicitPattern lints only the named package.
func TestExplicitPattern(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/bad.go": `package core

import "math/rand"

func J() int { return rand.Int() }
`,
		"internal/vm/bad.go": `package vm

import "math/rand"

func J() int { return rand.Int() }
`,
	})
	fs := mustRun(t, root, "./internal/vm")
	if len(fs) != 1 || fs[0].File != "internal/vm/bad.go" {
		t.Errorf("explicit pattern should lint only internal/vm: %v", fs)
	}
}

// TestRandGlobalInSearch: internal/search may import math/rand, but a
// draw from the global source is a broken fixture the new rule must
// catch.
func TestRandGlobalInSearch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/search/pick.go": `package search

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleRandGlobal, "internal/search/pick.go", 5) {
		t.Errorf("missing rand-global finding: %v", fs)
	}
	if hasRule(fs, RuleMathRand, "internal/search/pick.go", -1) {
		t.Errorf("math-rand import ban must not bind internal/search: %v", fs)
	}
}

// TestRandSeededInSearchClean: the sanctioned pattern — an explicitly
// seeded source, drawn through the local *rand.Rand — lints clean.
func TestRandSeededInSearchClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/search/pick.go": `package search

import "math/rand"

func Pick(n int, seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("seeded source should be clean: %v", fs)
	}
}

// TestRandGlobalRenamedImport: the rule resolves the package identity,
// not the identifier spelling.
func TestRandGlobalRenamedImport(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/search/pick.go": `package search

import mrand "math/rand"

func Pick(n int) int { return mrand.Intn(n) }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleRandGlobal, "internal/search/pick.go", 5) {
		t.Errorf("missing rand-global finding for renamed import: %v", fs)
	}
}

// TestRandGlobalOnlyInSearch: outside internal/search and the core the
// rule stays quiet (cmd tools and workloads keep their own policies).
func TestRandGlobalOnlyInSearch(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/pick.go": `package report

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleRandGlobal, "internal/report/pick.go", -1) {
		t.Errorf("rand-global must only bind internal/search: %v", fs)
	}
}

// TestRandTypeNameClean: naming the rand.Rand type (a struct field
// holding a seeded source) is not a draw and must lint clean.
func TestRandTypeNameClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/search/pick.go": `package search

import "math/rand"

type policy struct{ rng *rand.Rand }

func newPolicy(seed int64) *policy {
	return &policy{rng: rand.New(rand.NewSource(seed))}
}

func (p *policy) Pick(n int) int { return p.rng.Intn(n) }
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("rand.Rand type reference should be clean: %v", fs)
	}
}

// TestRandGlobalInSeededPeers: the chaos proxy and the daemon client
// share internal/search's seeded-rand grant — math/rand is importable,
// but the process-global source stays banned there too.
func TestRandGlobalInSeededPeers(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/netfault/pick.go": `package netfault

import "math/rand"

func Pick(n int) int { return rand.Intn(n) }
`,
		"internal/vltclient/jitter.go": `package vltclient

import "math/rand"

func Jitter(seed, n int64) int64 {
	r := rand.New(rand.NewSource(seed))
	return r.Int63n(n)
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleRandGlobal, "internal/netfault/pick.go", 5) {
		t.Errorf("missing rand-global finding in internal/netfault: %v", fs)
	}
	if hasRule(fs, RuleRandGlobal, "internal/vltclient/jitter.go", -1) {
		t.Errorf("seeded source in internal/vltclient should be clean: %v", fs)
	}
}

func TestFindModuleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/core/core.go": "package core\n",
	})
	got, err := FindModuleRoot(filepath.Join(root, "internal", "core"))
	if err != nil {
		t.Fatal(err)
	}
	// TempDir may sit behind a symlink (e.g. /tmp on darwin); compare
	// resolved paths.
	want, _ := filepath.EvalSymlinks(root)
	gotR, _ := filepath.EvalSymlinks(got)
	if gotR != want {
		t.Errorf("FindModuleRoot = %s, want %s", gotR, want)
	}
}

// TestRepoIsClean is the tier-1 gate in test form: the repository's own
// tree must lint clean.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}
