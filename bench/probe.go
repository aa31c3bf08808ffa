package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/core"
	"vlt/internal/serve"
	"vlt/internal/store"
	"vlt/internal/workloads"
)

// The probe cell is mpenc on V4-CMT at scale 1, the cell the fork
// benchmarks of the main module use; forks and replays cut it at
// forkCut cycles.
const (
	probeWorkload = "mpenc"
	probeMachine  = vlt.MachineV4CMT
	forkCut       = 5000
)

// timeEach runs fn n times and returns each call's duration; the first
// error ends the loop.
func timeEach(n int, fn func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(start))
	}
	return ds, nil
}

// medianIn is the median of ds in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	return median(durationsIn(ds, unit))
}

// probe times direct calls into single layers and one regeneration on
// the serial engine, the control `vltexp -all -jobs 1` runs, and checks
// fork parity.
// It makes the same calls on every workload, so its timings compare
// across workloads and commits alike. Each probe is one span under a
// "probe" root.
func probe(r *run, layer map[string]float64) {
	root := r.tracer.begin(nil, "probe")
	defer root.end()
	step := func(name string, fn func() error) {
		sp := r.tracer.begin(root, name)
		err := fn()
		sp.end()
		r.check("probe "+name, err)
	}

	var ref vlt.Result
	step("simulate", func() error {
		ds, err := timeEach(5, func() (err error) {
			ref, err = vlt.Run(probeWorkload, probeMachine, vlt.Options{})
			return err
		})
		if err != nil {
			return err
		}
		ns := medianIn(ds, time.Nanosecond)
		layer["sim.host_ns_per_cycle"] = ns / float64(ref.Cycles)
		layer["sim.host_ns_per_instr"] = ns / float64(ref.Retired)
		return nil
	})
	step("serial", func() error {
		start := time.Now()
		text, err := renderAll(vlt.NewEngine(1))
		layer["expall.serial_s"] = time.Since(start).Seconds()
		if err != nil {
			return err
		}
		return checkText(text, expallGolden)
	})
	step("fork", func() error { return probeFork(ref, layer) })
	step("vet", func() error {
		cells := gridCells()
		i := 0
		ds, err := timeEach(len(cells), func() error {
			c := cells[i]
			i++
			return vlt.VetCell(c.Workload, vlt.Machine(c.Machine), c.Options())
		})
		layer["vet.cell_ms_p50"] = medianIn(ds, time.Millisecond)
		return err
	})
	var keys []string
	step("key", func() error {
		cells := gridCells()
		const reps = 20
		start := time.Now()
		for i := 0; i < reps; i++ {
			keys = keys[:0]
			for _, c := range cells {
				key, err := vlt.CellKey(c.Workload, vlt.Machine(c.Machine), c.Options())
				if err != nil {
					return err
				}
				keys = append(keys, key)
			}
		}
		layer["key.cellkey_us"] = perCallUS(time.Since(start), reps*len(cells))
		start = time.Now()
		for i := 0; i < reps; i++ {
			for _, key := range keys {
				_ = store.ETag(key)
			}
		}
		layer["key.etag_us"] = perCallUS(time.Since(start), reps*len(keys))
		return nil
	})
	var body []byte
	step("render", func() error {
		const reps = 200
		start := time.Now()
		for i := 0; i < reps; i++ {
			var err error
			if body, err = api.Marshal(api.RunResponseFrom(ref)); err != nil {
				return err
			}
		}
		layer["render.run_us"] = perCallUS(time.Since(start), reps)
		return nil
	})
	step("serve", func() error { return probeServe(layer) })
	step("store", func() error { return probeStore(r, keys, body, layer) })
	step("model", func() error {
		rows, err := vlt.NewEngine(0).Table4(1)
		if err != nil {
			return err
		}
		sum, n := 0.0, 0
		for _, row := range rows {
			sum += math.Abs(row.MeasuredPercentVect - row.PaperPercentVect)
			n++
		}
		layer["model.table4_vect_err_pts"] = sum / float64(n)
		return nil
	})
}

func perCallUS(d time.Duration, calls int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(calls)
}

// buildProbeMachine builds the probe cell through core.NewMachine, the
// construction path the search driver and the fork benchmarks use
// beside the vlt facade.
func buildProbeMachine() (*core.Machine, error) {
	w, err := workloads.ByName(probeWorkload)
	if err != nil {
		return nil, err
	}
	cfg := core.V4CMT()
	cfg.NumThreads = 4
	cfg.InitialPartitions = 4
	return core.NewMachine(cfg, w.Build(workloads.Params{Threads: 4}))
}

// probeFork times Fork of the probe cell at the cut and the replay of
// its prefix from a fresh machine, and checks that a forked run and a
// replayed run both finish with the cycle count and metric snapshot
// vlt.Run reports for the cell, so the two construction paths cannot
// drift apart.
func probeFork(ref vlt.Result, layer map[string]float64) error {
	var replayed *core.Machine
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		m, err := buildProbeMachine()
		if err != nil {
			return err
		}
		start := time.Now()
		if err := m.RunUntil(forkCut); err != nil {
			return err
		}
		ds = append(ds, time.Since(start))
		replayed = m
	}
	layer["replay_prefix.ms"] = medianIn(ds, time.Millisecond)

	var fork *core.Machine
	ds, err := timeEach(20, func() error {
		fork = replayed.Fork()
		return nil
	})
	if err != nil {
		return err
	}
	layer["fork.ms"] = medianIn(ds, time.Millisecond)

	for _, m := range []struct {
		name string
		m    *core.Machine
	}{{"forked", fork}, {"replayed", replayed}} {
		res, err := m.m.Run()
		if err != nil {
			return fmt.Errorf("%s run: %w", m.name, err)
		}
		if err := sameRun(ref, res); err != nil {
			return fmt.Errorf("%s run of %s/%s: %w", m.name, probeWorkload, probeMachine, err)
		}
	}
	return nil
}

// sameRun compares a machine's result with the facade's result for the
// same cell: cycle count and every metric.
func sameRun(ref vlt.Result, res core.Result) error {
	if res.Cycles != ref.Cycles {
		return fmt.Errorf("%d cycles, vlt.Run %d", res.Cycles, ref.Cycles)
	}
	snap := res.Metrics()
	if len(snap) != len(ref.Metrics) {
		return fmt.Errorf("%d metrics, vlt.Run %d", len(snap), len(ref.Metrics))
	}
	for i, v := range snap {
		if want := ref.Metrics[i]; v.Name != want.Name || v.AsFloat() != want.Value {
			return fmt.Errorf("metric %s = %s, vlt.Run %s = %s", v.Name, v.FormatValue(), want.Name, want.FormatValue())
		}
	}
	return nil
}

// probeServe times one node's handler directly (ServeHTTP into a
// recorder, no socket) and over a loopback connection, per tier: a
// memory hit, a 304 revalidation, an experiment hit and a hot sweep of
// one workload over the vector machines, streamed as vltsweep does.
func probeServe(layer map[string]float64) error {
	h := serve.New(serve.Config{}).Handler()
	srv := httptest.NewServer(h)
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	cell := api.RunRequest{Workload: "mxm", Machine: string(vlt.MachineBase)}
	runU, expU := runURL(srv.URL, cell), experimentURL(srv.URL, "table1")
	_, hdr, err := getOK(c, runU) // simulates the cell once
	if err != nil {
		return err
	}
	if _, _, err := getOK(c, expU); err != nil {
		return err
	}
	revalidate := http.Header{"If-None-Match": {hdr.Get("ETag")}}

	const reps = 1000
	req := httptest.NewRequest(http.MethodGet, runU, nil)
	ds, err := timeEach(reps, func() error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d", rec.Code)
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["handler.hit_us_p50"] = medianIn(ds, time.Microsecond)

	for _, t := range []struct {
		metric string
		url    string
		header http.Header
		status int
	}{
		{"tier.hit_us_p50", runU, nil, http.StatusOK},
		{"tier.not_modified_us_p50", runU, revalidate, http.StatusNotModified},
		{"tier.experiment_us_p50", expU, nil, http.StatusOK},
	} {
		ds, err := timeEach(reps, func() error {
			status, _, _, err := get(c, t.url, t.header)
			if err == nil && status != t.status {
				err = fmt.Errorf("GET %s: status %d, want %d", t.url, status, t.status)
			}
			return err
		})
		if err != nil {
			return err
		}
		layer[t.metric] = medianIn(ds, time.Microsecond)
	}

	hot := gridSweeps()[0]
	hot.Workloads = []string{cell.Workload}
	p, golden := peer(c, srv.URL), goldenDigests()
	if err := sweep(p, hot, golden); err != nil { // simulates the row once
		return err
	}
	ds, err = timeEach(reps/10, func() error { return sweep(p, hot, golden) })
	if err != nil {
		return err
	}
	layer["tier.sweep_hot_ms_p50"] = medianIn(ds, time.Millisecond)
	return nil
}

// probeStore times the store's durable write, its open over the written
// entries and its verified read, with the grid's keys and a rendered
// run body.
func probeStore(r *run, keys []string, body []byte, layer map[string]float64) error {
	dir, err := r.scratch("probe-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	i := 0
	ds, err := timeEach(len(keys), func() error {
		err := st.Put(keys[i], body)
		i++
		return err
	})
	if err != nil {
		return err
	}
	layer["store.put_ms"] = medianIn(ds, time.Millisecond)
	ds, err = timeEach(5, func() (err error) {
		st, err = store.Open(dir, 0)
		return err
	})
	if err != nil {
		return err
	}
	layer["store.open_ms"] = medianIn(ds, time.Millisecond)
	i = 0
	ds, err = timeEach(len(keys), func() error {
		got, ok := st.Get(keys[i])
		i++
		if !ok || string(got) != string(body) {
			return fmt.Errorf("store get %d: hit %t", i, ok)
		}
		return nil
	})
	layer["store.get_us"] = medianIn(ds, time.Microsecond)
	return err
}
