package vlt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"vlt/internal/core"
	"vlt/internal/runner"
	"vlt/internal/vm"
	"vlt/internal/workloads"
)

// This file implements the experiment engine. Every experiment driver
// (Figure1..6, Table4, the extension studies) decomposes into
// independent (workload, machine, options) simulation cells; the engine
// memoizes each cell by a content-addressed fingerprint and asks its
// CellSource for each unique one, so a cell shared by several figures —
// e.g. each workload's base-machine run, requested by Figures 1, 3, 4, 5
// and Table 4 alike — is computed exactly once per engine. NewEngine's
// source simulates in process on the engine's own runner.Slots (the
// repo's one execution bound); vltd's source takes its cache tiers and
// flight group, so a figure there is a fan-out over cached cells.
//
// Determinism: the simulator is execution-driven but fully deterministic
// (no wall clock, no randomness, one private Machine per cell), so a
// cell's result is a pure function of its fingerprint and an engine's
// output does not depend on its width or its source; every driver reaches
// the engine through grid, which collects futures in a fixed order, and
// TestParallelMatchesSerial enforces the equivalence of a one-slot and a
// multi-slot engine for every catalogue entry.

// CellSource produces the Result of one simulation cell for an Engine.
// The engine calls it at most once per unique cell, concurrently across
// cells, from goroutines that hold no execution slot: the source bounds
// its own simulations. A source need fill only the fields a served run
// body carries (identity, counts, Verified and Metrics); the engine
// derives the rest from Metrics.
type CellSource func(workload string, m Machine, opt Options) (Result, error)

// Engine memoizes experiment cells over a CellSource: each unique cell
// is requested from the source once, and the memo lives exactly as long
// as the engine.
type Engine struct {
	source CellSource
	serial bool // NewEngine(1): one simulation at a time

	mu       sync.Mutex
	cells    map[string]*runner.Task[cell]
	stats    EngineStats
	done     int // cells finished simulating
	progress func(done, total int)
}

// EngineStats counts an engine's cell submissions.
type EngineStats struct {
	// Submitted is the total number of cells the drivers requested.
	Submitted int
	// Unique is the number of distinct cells, i.e. cells requested from
	// the source.
	Unique int
	// Hits is the number of requests served from the memo
	// (Submitted - Unique).
	Hits int
}

// cell is the memoized unit of work: one simulation's full result.
type cell struct {
	res Result
	raw UtilizationCounts
}

// NewEngine returns an engine that simulates its cells in process on
// its own jobs slots: at most jobs simulations run at once (jobs <= 0
// selects runtime.GOMAXPROCS(0)). NewEngine(1) runs one cell at a time —
// the control for the differential test.
func NewEngine(jobs int) *Engine {
	slots := runner.NewSlots(jobs)
	e := NewEngineFrom(func(workload string, m Machine, opt Options) (res Result, err error) {
		slots.Do(func() { res, err = simulateCell(workload, m, opt) })
		return res, err
	})
	e.serial = slots.Width() == 1
	return e
}

// NewEngineFrom returns an engine whose unique cells come from src. vltd
// runs each /v1/experiment on one, with a source that serves cells
// through its cache tiers and flight group.
func NewEngineFrom(src CellSource) *Engine {
	return &Engine{source: src, cells: make(map[string]*runner.Task[cell])}
}

// Serial reports whether the engine simulates one cell at a time
// (NewEngine(1)).
func (e *Engine) Serial() bool { return e.serial }

// SetProgress installs a callback invoked after every simulated cell
// with the number of completed and scheduled cells. The callback runs on
// the cells' goroutines and must be safe for concurrent use; memo hits
// do not re-invoke it.
func (e *Engine) SetProgress(fn func(done, total int)) {
	e.mu.Lock()
	e.progress = fn
	e.mu.Unlock()
}

// Stats returns the engine's submission counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// fingerprint content-addresses one simulation cell, and is CellKey's
// body. It hashes the resolved request as one canonical string: the
// workload, the machine's resolved name, lane count and thread count,
// the clamped scale, the lane-reclaim flag and the auditor's resolved
// on/off. Every preset is a function of its name, lanes and threads, so
// these fields fix every parameter the machine runs with, and spellings
// that resolve alike (Lanes 0 and 8 on base, any lane count on CMT)
// share a key. It does not validate the configuration: a sweep keys a
// refused cell and answers it with a per-cell error.
func fingerprint(workload string, m Machine, opt Options) (string, error) {
	if _, err := workloads.ByName(workload); err != nil {
		return "", err
	}
	cfg, threads, err := machineConfig(m, opt)
	if err != nil {
		return "", err
	}
	b := make([]byte, 0, 128)
	b = append(b, "w="...)
	b = append(b, workload...)
	b = append(b, "|m="...)
	b = append(b, cfg.Name...)
	b = append(b, "|lanes="...)
	b = strconv.AppendInt(b, int64(cfg.Lanes), 10)
	b = append(b, "|threads="...)
	b = strconv.AppendInt(b, int64(threads), 10)
	b = append(b, "|scale="...)
	b = strconv.AppendInt(b, int64(max(opt.Scale, 1)), 10)
	b = append(b, "|noReclaim="...)
	b = strconv.AppendBool(b, opt.NoLaneReclaim)
	b = append(b, "|audit="...)
	b = append(b, cfg.Audit.String()...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// cellFuture is the engine-side future for one submitted cell.
type cellFuture struct {
	task *runner.Task[cell]
	err  error // submission-time error (bad machine/options)
}

// submit schedules one simulation cell: a new cell is requested from the
// source at once, and a duplicate joins the memoized task.
func (e *Engine) submit(workload string, m Machine, opt Options) *cellFuture {
	key, err := fingerprint(workload, m, opt)
	if err != nil {
		return &cellFuture{err: err}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Submitted++
	if t, ok := e.cells[key]; ok {
		e.stats.Hits++
		return &cellFuture{task: t}
	}
	e.stats.Unique++
	// A panic anywhere in a cell's simulation (machine model bug,
	// workload Verify blowing up) fails only that cell, as a
	// *runner.PanicError naming it; sibling cells and the engine survive.
	t := runner.Go(workload+"/"+string(m), func() (cell, error) {
		defer e.cellDone()
		res, err := e.source(workload, m, opt)
		return cell{res: res, raw: derive(&res)}, err
	})
	e.cells[key] = t
	return &cellFuture{task: t}
}

// cellDone counts one finished simulation and reports progress. It runs
// before the cell's task completes, so a cell's callback has returned
// before any wait on the cell does.
func (e *Engine) cellDone() {
	e.mu.Lock()
	e.done++
	cb, done, total := e.progress, e.done, e.stats.Unique
	e.mu.Unlock()
	if cb != nil {
		cb(done, total)
	}
}

// wait blocks until the cell has simulated and returns it.
func (f *cellFuture) wait() (cell, error) {
	if f.err != nil {
		return cell{}, f.err
	}
	return f.task.Wait()
}

// column is one design point of an experiment: a machine and the options
// its cells run with (grid sets Scale).
type column struct {
	m   Machine
	opt Options
}

// String names the column's machine and the options it sets.
func (c column) String() string {
	s := string(c.m)
	if c.opt.Lanes != 0 {
		s += ", lanes=" + strconv.Itoa(c.opt.Lanes)
	}
	if c.opt.NoLaneReclaim {
		s += ", noLaneReclaim"
	}
	return s
}

// on returns one default-options column per machine.
func on(ms ...Machine) []column {
	cols := make([]column, len(ms))
	for i, m := range ms {
		cols[i].m = m
	}
	return cols
}

// grid is every experiment driver's one path to the engine: it submits
// the cells ws × cols at scale, workload-major, then waits for them in
// the same order, so rows[i][j] is ws[i] on cols[j]. The first failed
// cell fails the grid with an error naming label, the workload and the
// column.
func (e *Engine) grid(label string, ws []*workloads.Workload, scale int, cols ...column) ([][]cell, error) {
	return e.gridOf(label, ws, scale, func(*workloads.Workload) []column { return cols })
}

// gridOf is grid with columns chosen per workload: rows[i][j] is ws[i]
// on colsOf(ws[i])[j].
func (e *Engine) gridOf(label string, ws []*workloads.Workload, scale int, colsOf func(*workloads.Workload) []column) ([][]cell, error) {
	cols := make([][]column, len(ws))
	futs := make([][]*cellFuture, len(ws))
	for i, w := range ws {
		cols[i] = colsOf(w)
		for _, c := range cols[i] {
			c.opt.Scale = scale
			futs[i] = append(futs[i], e.submit(w.Name, c.m, c.opt))
		}
	}
	rows := make([][]cell, len(ws))
	for i, w := range ws {
		rows[i] = make([]cell, len(cols[i]))
		for j, c := range cols[i] {
			var err error
			if rows[i][j], err = futs[i][j].wait(); err != nil {
				return nil, fmt.Errorf("%s (%s, %s): %w", label, w.Name, c, err)
			}
		}
	}
	return rows, nil
}

// speedup is how many times faster cell x ran than cell base.
func speedup(base, x cell) float64 { return float64(base.res.Cycles) / float64(x.res.Cycles) }

// simulateCell is every simulation's entry point (Run and NewEngine's
// source), indirect so tests can substitute a panicking implementation
// or observe every simulation the process runs, served ones included.
var simulateCell = runCell

// cellSpec is one fully resolved simulation cell: the workload, the
// machine configuration, and the build parameters the workload's SPMD
// program is generated with. It is the shared front half of runCell and
// VetCell, so the program the verifier sees is exactly the program the
// simulator runs.
type cellSpec struct {
	w       *workloads.Workload
	cfg     core.Config
	threads int
	params  workloads.Params
}

// resolveCell validates one (workload, machine, options) triple and
// resolves it to a cellSpec. It refuses every configuration
// core.NewMachine would, so a cell it accepts fails, if at all, only
// after its simulation starts.
func resolveCell(workload string, m Machine, opt Options) (cellSpec, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return cellSpec{}, err
	}
	cfg, threads, err := machineConfig(m, opt)
	if err != nil {
		return cellSpec{}, err
	}
	if err := cfg.Validate(); err != nil {
		return cellSpec{}, fmt.Errorf("vlt: %w", err)
	}
	scalarOnly := m == MachineCMT || m == MachineVLTScalar
	if scalarOnly && w.Class != workloads.ScalarParallel {
		return cellSpec{}, fmt.Errorf(
			"vlt: workload %q needs a vector unit; machine %q has none", workload, m)
	}
	return cellSpec{
		w:       w,
		cfg:     cfg,
		threads: threads,
		params: workloads.Params{
			Threads: threads, Scale: opt.Scale,
			ScalarOnly: scalarOnly, NoLaneReclaim: opt.NoLaneReclaim,
		},
	}, nil
}

// CellKey returns the content-addressed fingerprint of one simulation
// cell — the key the engine memoizes by. Fully resolved equivalent
// requests (e.g. Lanes 0 and Lanes 8 on the base machine) share a key,
// and any option that can change the simulated program or the reported
// result separates keys. Long-lived callers (cmd/vltd's response cache)
// key their own storage by it so a cached entry is exactly one engine
// cell.
func CellKey(workload string, m Machine, opt Options) (string, error) {
	return fingerprint(workload, m, opt)
}

// VetCell builds exactly the program the named cell would simulate and
// runs the static verifier (asm.Program.Vet) over it. It returns nil
// for a clean program and a *vet.Error otherwise; callers render the
// findings with report.Diagnose. The serving layer vets every request
// before admitting it to simulation.
func VetCell(workload string, m Machine, opt Options) error {
	spec, err := resolveCell(workload, m, opt)
	if err != nil {
		return err
	}
	return spec.w.Build(spec.params).VetErr()
}

// runCell simulates one cell on a private Machine and returns the public
// result. It is the single simulation entry point (Run and NewEngine's
// source reach it through simulateCell), and it is goroutine-safe: all
// shared package state (workload registry, ISA tables) is immutable
// after init.
func runCell(workload string, m Machine, opt Options) (Result, error) {
	spec, err := resolveCell(workload, m, opt)
	if err != nil {
		return Result{}, err
	}
	w, cfg, threads, p := spec.w, spec.cfg, spec.threads, spec.params
	prog := w.Build(p)
	machine, err := core.NewMachine(cfg, prog)
	if err != nil {
		return Result{}, err
	}
	defer machine.Release()
	res, err := machine.Run()
	if err != nil {
		return Result{}, err
	}
	snap := res.Metrics()
	metrics := make(Metrics, 0, len(snap))
	for _, v := range snap {
		metrics = append(metrics, Metric{Name: v.Name, Value: v.AsFloat()})
	}
	out := Result{
		Workload:   workload,
		Machine:    m,
		Threads:    threads,
		Cycles:     res.Cycles,
		Retired:    res.Retired,
		VecIssued:  snap.Uint("vcl.issued"), // absent, so 0, without a vector unit
		VecElemOps: snap.Uint("vcl.elem_ops"),
		Metrics:    metrics,
	}
	derive(&out)
	if err := w.Verify(machine.VM(), prog, p); err != nil {
		return out, fmt.Errorf("vlt: verification failed: %w", err)
	}
	out.Verified = true
	return out, nil
}

// derive computes every field of r that is a function of its metric
// snapshot from r.Metrics — Util and the Table-4 characterization
// (PercentVect, AvgVL, CommonVLs, OpportunityPct) — and returns the raw
// Figure-4 census. It is the only place these are computed: runCell
// builds its Results through it and the Engine passes every cell
// through it, so a Result decoded from a served run body (which carries
// Metrics but not the characterization) and one fresh from the
// simulator agree bit for bit.
func derive(r *Result) UtilizationCounts {
	var raw UtilizationCounts
	var ops vm.OpStats
	for _, m := range r.Metrics {
		switch m.Name {
		case "vm.ops.pct_vect":
			r.PercentVect = m.Value
		case "vm.ops.avg_vl":
			r.AvgVL = m.Value
		case "machine.opportunity_pct":
			r.OpportunityPct = m.Value
		case "vcl.util.busy":
			raw.Busy = uint64(m.Value)
		case "vcl.util.part_idle":
			raw.PartIdle = uint64(m.Value)
		case "vcl.util.stalled":
			raw.Stalled = uint64(m.Value)
		case "vcl.util.all_idle":
			raw.AllIdle = uint64(m.Value)
		default:
			if b, ok := strings.CutPrefix(m.Name, "vm.ops.vl_hist["); ok {
				if vl, err := strconv.Atoi(strings.TrimSuffix(b, "]")); err == nil && vl >= 0 && vl < len(ops.VLHist) {
					ops.VLHist[vl] = int64(m.Value)
				}
			}
		}
	}
	r.CommonVLs = ops.CommonVLs(4)
	r.Util = utilizationPct(raw)
	return raw
}
