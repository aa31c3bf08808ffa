package vlt

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/guard"
	"vlt/internal/stats"
)

// The equivalence harness is the differential oracle behind every
// number the simulator prints (DESIGN.md §11, §12): cycle skipping,
// forking and the invariant auditor must never change a simulated
// cycle. Each cell's reference is the machine ticked every cycle
// (core.Config.NoSkip) with the auditor on, simulated once; every mode
// below must reproduce its full metric snapshot, and every run of a
// verifying cell must also pass the workload's functional check, as
// runCell does. Cells and modes run as parallel subtests.
//
// Modes, one entry point each, every subtest named by its cell:
//   - skip (TestSkipMatchesTickEveryCycle): the event-driven scheduler;
//   - audit-off (TestAuditOffMatchesOn): skipping with the auditor off,
//     the production configuration (every metric but guard.audit.*);
//   - fork@cut (TestForkedMachineMatchesParent): run to cut, Fork, run
//     both to completion, for cuts 1, T/3 and 9T/10 of the reference's
//     T cycles (the forkWorkloads cells): the resumed parent and the
//     fork must each match;
//   - TestForkUnderSkip: a fork at T/2 under each scheduler, on three
//     cells, must match.
//
// Cells: every runnable Machines() × Workloads() cell and every cell
// `vltexp -all` simulates (allCells). The ablation settings no named
// machine uses run the skip and audit-off modes in internal/core's
// TestSkipMatchesTickUnderAblations. A new invariant joins as a mode, a
// new design point as a cell.

// simCell names one simulation as the engine runs it.
type simCell struct {
	workload string
	machine  Machine
	opt      Options
}

// builtCell is one cell resolved as runCell resolves it, with its
// program built once: every machine of the cell shares the program,
// which the simulator only reads.
type builtCell struct {
	cellSpec
	prog   *asm.Program
	verify bool // check the workload's result after each run
}

// buildCell resolves c, applies mutate (when non-nil) to the resolved
// machine configuration and builds the cell's program. It is the one
// way root tests and benchmarks build a cell's machine.
func buildCell(tb testing.TB, c simCell, mutate func(*core.Config)) builtCell {
	tb.Helper()
	spec, err := resolveCell(c.workload, c.machine, c.opt)
	if err != nil {
		tb.Fatalf("resolve %s/%s: %v", c.workload, c.machine, err)
	}
	if mutate != nil {
		mutate(&spec.cfg)
	}
	return builtCell{spec, spec.w.Build(spec.params), !c.opt.SkipVerify}
}

// machine returns a fresh, unrun machine for the cell.
func (b builtCell) machine(tb testing.TB) *core.Machine {
	tb.Helper()
	m, err := core.NewMachine(b.cfg, b.prog)
	if err != nil {
		tb.Fatalf("build %s: %v", b.cfg.Name, err)
	}
	return m
}

// finish runs m to completion, checks the workload's result on it
// unless the cell skips verification, and releases it.
func (b builtCell) finish(tb testing.TB, m *core.Machine) core.Result {
	tb.Helper()
	res, err := b.complete(m)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// complete is finish without a testing.TB, for a goroutine of its own.
func (b builtCell) complete(m *core.Machine) (core.Result, error) {
	defer m.Release()
	res, err := m.Run()
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	if b.verify {
		if err := b.w.Verify(m.VM(), b.prog, b.params); err != nil {
			return res, fmt.Errorf("verification failed: %w", err)
		}
	}
	return res, nil
}

// equivCase is one harness cell: a simulation cell, whether the fork
// modes run on it, and its shared tick reference.
type equivCase struct {
	simCell
	fork bool
	ref  *equivRef
}

func (c equivCase) String() string {
	s := string(c.machine) + "/" + c.workload
	if c.opt.Lanes != 0 {
		s += fmt.Sprintf(",lanes=%d", c.opt.Lanes)
	}
	if c.opt.Threads != 0 {
		s += fmt.Sprintf(",threads=%d", c.opt.Threads)
	}
	if c.opt.NoLaneReclaim {
		s += ",noreclaim"
	}
	return s
}

// forkWorkloads picks three workloads for a machine: the lane-reclaim
// benchmark, a long-vector one and a scalar-parallel one for vector
// machines; the three scalar-parallel ones for machines without a
// vector unit.
func forkWorkloads(m Machine) []string {
	if m == MachineCMT || m == MachineVLTScalar {
		return []string{"radix", "ocean", "barnes"}
	}
	return []string{"mpenc", "mxm", "radix"}
}

// allCells returns every cell CollectAll(1), and so `vltexp -all`,
// simulates, recorded through a source that simulates nothing, with the
// number of unique cells the engine requested.
func allCells(tb testing.TB) ([]simCell, int) {
	tb.Helper()
	var mu sync.Mutex
	var cells []simCell
	eng := NewEngineFrom(func(w string, m Machine, opt Options) (Result, error) {
		mu.Lock()
		cells = append(cells, simCell{w, m, opt})
		mu.Unlock()
		return Result{Workload: w, Machine: m, Cycles: 1}, nil
	})
	if _, err := eng.CollectAll(1); err != nil {
		tb.Fatal(err)
	}
	return cells, eng.Stats().Unique
}

// equivCases returns the harness's cells, deduplicated by fingerprint,
// in a fixed order.
func equivCases(tb testing.TB) []equivCase {
	tb.Helper()
	var out []equivCase
	seen := make(map[string]bool)
	add := func(c equivCase) {
		key, err := fingerprint(c.workload, c.machine, c.opt)
		if err != nil {
			tb.Fatalf("%v: %v", c, err)
		}
		if !seen[key] {
			seen[key] = true
			c.ref = new(equivRef)
			out = append(out, c)
		}
	}
	for _, m := range Machines() {
		for _, w := range Workloads() {
			if _, err := resolveCell(w, m, Options{}); err != nil {
				continue // a vector workload on a machine without a vector unit
			}
			add(equivCase{simCell: simCell{w, m, Options{}}, fork: slices.Contains(forkWorkloads(m), w)})
		}
	}
	all, _ := allCells(tb)
	slices.SortFunc(all, func(a, b simCell) int {
		return cmp.Compare(equivCase{simCell: a}.String(), equivCase{simCell: b}.String())
	})
	for _, c := range all {
		add(equivCase{simCell: c})
	}
	return out
}

// run simulates the cell from scratch with the given scheduler and
// auditor settings.
func (b builtCell) run(t *testing.T, noSkip bool, audit guard.AuditMode) core.Result {
	t.Helper()
	b.cfg.NoSkip, b.cfg.Audit = noSkip, audit
	return b.finish(t, b.machine(t))
}

// forkAt runs the cell to cycle cut with the auditor on, skipping
// unless noSkip, forks it, and runs the parent and the fork to
// completion in two goroutines, so the race detector flags any array
// the fork still shares with its parent.
func (b builtCell) forkAt(t *testing.T, cut uint64, noSkip bool) (parent, fork core.Result) {
	t.Helper()
	b.cfg.NoSkip, b.cfg.Audit = noSkip, guard.AuditOn
	m := b.machine(t)
	if err := m.RunUntil(cut); err != nil {
		t.Fatalf("run to cycle %d: %v", cut, err)
	}
	clone := m.Fork()
	var forkErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		fork, forkErr = b.complete(clone)
	}()
	parent, err := b.complete(m)
	<-done
	if err != nil {
		t.Fatalf("parent: %v", err)
	}
	if forkErr != nil {
		t.Fatalf("fork: %v", forkErr)
	}
	return parent, fork
}

// diffSnapshots fails t naming the mode and the first metric of got
// that differs from the reference, skipping metrics whose name
// starts with ignore (when non-empty).
func diffSnapshots(t *testing.T, mode string, ref, got stats.Snapshot, ignore string) {
	t.Helper()
	if ignore != "" {
		drop := func(v stats.Value) bool { return strings.HasPrefix(v.Name, ignore) }
		ref = slices.DeleteFunc(slices.Clone(ref), drop)
		got = slices.DeleteFunc(slices.Clone(got), drop)
	}
	for i := range min(len(ref), len(got)) {
		if ref[i] != got[i] {
			t.Fatalf("%s: %s, reference %s", mode, got[i], ref[i])
		}
	}
	if len(ref) != len(got) {
		t.Fatalf("%s: %d metrics, reference %d", mode, len(got), len(ref))
	}
}

// equivRef is a cell's tick reference, simulated once per process and
// shared by every entry point below.
type equivRef struct {
	once sync.Once
	bc   builtCell
	ref  core.Result
	ok   bool
}

// reference returns the cell's built program and its tick reference,
// simulating the reference on first use.
func (c equivCase) reference(t *testing.T) (builtCell, core.Result) {
	t.Helper()
	c.ref.once.Do(func() {
		c.ref.bc = buildCell(t, c.simCell, nil)
		c.ref.ref = c.ref.bc.run(t, true, guard.AuditOn)
		c.ref.ok = true
	})
	if !c.ref.ok {
		t.Fatal("the cell's tick reference failed")
	}
	return c.ref.bc, c.ref.ref
}

var equivTable struct {
	once  sync.Once
	cases []equivCase
}

// sharedCases returns the harness's cells with one tick reference
// each, shared by every entry point in the process.
func sharedCases(t *testing.T) []equivCase {
	t.Helper()
	equivTable.once.Do(func() { equivTable.cases = equivCases(t) })
	if equivTable.cases == nil {
		t.Fatal("the harness's cell table failed to build")
	}
	return equivTable.cases
}

// equivMode runs check as one parallel subtest per harness cell that
// keep selects, named by the cell, after the cell's tick reference.
// The modes' tests themselves run one after another, so the first
// computes each reference while no other subtest waits for it.
func equivMode(t *testing.T, keep func(equivCase) bool, check func(t *testing.T, bc builtCell, ref core.Result)) {
	for _, c := range sharedCases(t) {
		if keep != nil && !keep(c) {
			continue
		}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			bc, ref := c.reference(t)
			check(t, bc, ref)
		})
	}
}

// TestSkipMatchesTickEveryCycle is the skip mode: the event-driven
// scheduler on every cell. A divergence means a component's NextEvent
// lied about its next state change or SkipIdle miscredited a counter.
func TestSkipMatchesTickEveryCycle(t *testing.T) {
	equivMode(t, nil, func(t *testing.T, bc builtCell, ref core.Result) {
		diffSnapshots(t, "skip", ref.Metrics(), bc.run(t, false, guard.AuditOn).Metrics(), "")
	})
}

// TestAuditOffMatchesOn is the audit-off mode: skipping with the
// auditor off, the production configuration, on every cell.
func TestAuditOffMatchesOn(t *testing.T) {
	equivMode(t, nil, func(t *testing.T, bc builtCell, ref core.Result) {
		diffSnapshots(t, "audit-off", ref.Metrics(), bc.run(t, false, guard.AuditOff).Metrics(), "guard.audit.")
	})
}

// TestForkedMachineMatchesParent is the fork@cut mode on the
// forkWorkloads cells: any divergence of the resumed parent or the fork
// means RunUntil-then-Run is not seamless or Fork shared mutable state
// or missed a field.
func TestForkedMachineMatchesParent(t *testing.T) {
	fork := func(c equivCase) bool { return c.fork }
	equivMode(t, fork, func(t *testing.T, bc builtCell, ref core.Result) {
		for _, cut := range []uint64{1, ref.Cycles / 3, ref.Cycles * 9 / 10} {
			t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
				t.Parallel()
				parent, fork := bc.forkAt(t, cut, false)
				mode := fmt.Sprintf("fork@%d", cut)
				diffSnapshots(t, mode+" parent", ref.Metrics(), parent.Metrics(), "")
				diffSnapshots(t, mode+" fork", ref.Metrics(), fork.Metrics(), "")
			})
		}
	})
}

// TestForkUnderSkip pins forking inside a skippable idle span: a fork
// at half the run under the skipping scheduler and one under the tick
// reference's must both reach the reference's final metrics.
func TestForkUnderSkip(t *testing.T) {
	cells := map[string]bool{"mpenc/V4-CMT": true, "mxm/base": true, "radix/VLT-scalar": true}
	for _, c := range sharedCases(t) {
		name := c.workload + "/" + string(c.machine)
		if c.opt != (Options{}) || !cells[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bc, ref := c.reference(t)
			cut := ref.Cycles / 2
			for _, noSkip := range []bool{false, true} {
				_, fork := bc.forkAt(t, cut, noSkip)
				diffSnapshots(t, fmt.Sprintf("fork@%d noskip=%v", cut, noSkip), ref.Metrics(), fork.Metrics(), "")
			}
		})
	}
}

// TestEquivalenceCoversEveryCell pins the harness's cell set: every
// runnable grid cell (78) and every cell `vltexp -all` simulates (78, 39
// of them outside the grid: Figure 1's 1, 2 and 4 lanes, the 16-lane and
// the no-reclaim studies), each once, with the fork modes on 30 of them.
func TestEquivalenceCoversEveryCell(t *testing.T) {
	cases := equivCases(t)
	in := make(map[string]bool)
	forks := 0
	for _, c := range cases {
		key, _ := fingerprint(c.workload, c.machine, c.opt)
		in[key] = true
		if c.fork {
			forks++
		}
	}
	all, unique := allCells(t)
	if len(all) != unique || unique != 78 {
		t.Errorf("recorded %d -all cells, engine requested %d unique, want 78", len(all), unique)
	}
	for _, c := range all {
		if key, _ := fingerprint(c.workload, c.machine, c.opt); !in[key] {
			t.Errorf("-all cell %v is not in the harness", equivCase{simCell: c})
		}
	}
	if len(cases) != 117 || len(in) != 117 || forks != 30 {
		t.Errorf("harness has %d cells (%d unique, %d forked), want 117 (117, 30)", len(cases), len(in), forks)
	}
}
