package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"vlt/internal/api"
	"vlt/internal/runner"
	"vlt/internal/serve"
	"vlt/internal/store"
	"vlt/internal/vltclient"
)

// clients is how many operations the concurrent workloads keep in
// flight: one per CPU of the two-CPU machines the benchmark is sized
// for. Each serving client holds one keep-alive connection and sends its
// next request when the previous reply is read.
const clients = 2

// concurrently runs fn(0) ... fn(clients-1) concurrently and joins their
// errors.
func concurrently(fn func(i int) error) error {
	fns := make([]func() error, clients)
	for i := range fns {
		i := i
		fns[i] = func() error { return fn(i) }
	}
	return errors.Join(runner.Parallel(fns...)...)
}

// node is one in-process vltd: a serve.Server on a loopback listener,
// with or without a persistent store.
type node struct {
	srv *httptest.Server
}

// startNode builds a server over st (nil: memory tier only) and starts
// it on a loopback listener.
func startNode(st *store.Store) *node {
	return &node{srv: httptest.NewServer(serve.New(serve.Config{Store: st}).Handler())}
}

func (n *node) close() {
	if n != nil {
		n.srv.Close()
	}
}

// newClient returns an HTTP client that keeps one connection open to
// the server it talks to.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func newClients() []*http.Client {
	cs := make([]*http.Client, clients)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// peer returns the client vltd's own callers use, the fleet coordinator
// (/v1/run) and vltsweep (/v1/sweep), for the node at base, over hc.
// Retries are off, so a failed call counts as failed instead of being
// hidden by a retry.
func peer(hc *http.Client, base string) *vltclient.Client {
	return vltclient.New(vltclient.Config{BaseURL: base, HTTPClient: hc, MaxRetries: -1})
}

// callTimeout is the deadline of each client call. The client sends it
// as timeout_ms, as the fleet coordinator forwards vltd's own default
// request deadline and vltsweep its -timeout.
const callTimeout = time.Minute

// get sends one GET and reads the whole reply.
func get(c *http.Client, u string, header http.Header) (status int, body []byte, h http.Header, err error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header, err
}

// getOK sends one GET that must answer 200 and returns the body.
func getOK(c *http.Client, u string) ([]byte, http.Header, error) {
	status, body, h, err := get(c, u, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", u, status)
	}
	return body, h, err
}

// sweep streams one /v1/sweep request as vltsweep does and checks it:
// the cells in order, every body against its golden digest, no error
// envelopes, and a trailer that accounts for every cell.
func sweep(p *vltclient.Client, req api.SweepRequest, golden map[string]string) error {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	cells := req.Cells()
	n := 0
	tr, err := p.Sweep(ctx, req, func(line api.SweepCell) error {
		if line.Error != nil {
			return fmt.Errorf("sweep cell %s: %v", line.Error.Cell, line.Error)
		}
		if n == len(cells) {
			return fmt.Errorf("sweep: more than %d cells", len(cells))
		}
		want := cells[n]
		n++
		if line.Workload != want.Workload || line.Machine != want.Machine {
			return fmt.Errorf("sweep line %d is %s/%s, want %s/%s", n-1, line.Workload, line.Machine, want.Workload, want.Machine)
		}
		return checkDigest(golden, runDigestKey(want), append(line.Result, '\n'))
	})
	if err != nil {
		return err
	}
	if n != len(cells) || tr.Cells != len(cells) || tr.Errors != 0 {
		return fmt.Errorf("sweep of %d cells: %d lines, trailer %+v", len(cells), n, tr)
	}
	return nil
}

// runBody fetches one cell as the fleet coordinator does: POST /v1/run,
// no ETag.
func runBody(p *vltclient.Client, cell api.RunRequest) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	return p.RunBody(ctx, cell)
}

// scrape reads a node's /metricsz into name → value.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	body, _, err := getOK(c, base+"/metricsz")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, nil
}

// serverCounts maps per-layer count names to the /metricsz counters
// they are read from.
var serverCounts = map[string]string{
	"cache.hits":        "serve.cache.hits",
	"cache.misses":      "serve.cache.misses",
	"cache.evictions":   "serve.cache.evictions",
	"flight.executed":   "serve.flight.executed",
	"flight.coalesced":  "serve.flight.coalesced",
	"flight.rejected":   "serve.flight.rejected",
	"store.hits":        "serve.store.hits",
	"store.writes":      "serve.store.writes",
	"store.write_fails": "serve.store.write_fails",
	"store.corrupt":     "serve.store.corrupt",
}

// countServer adds the difference between two scrapes of one node to
// the run's per-layer counts.
func countServer(r *run, before, after map[string]float64) {
	for name, key := range serverCounts {
		r.count(name, after[key]-before[key])
	}
}

// runURL is the GET /v1/run query of one grid cell.
func runURL(base string, c api.RunRequest) string {
	return base + "/v1/run?" + url.Values{"workload": {c.Workload}, "machine": {c.Machine}}.Encode()
}

func experimentURL(base, name string) string {
	return base + "/v1/experiment?name=" + url.QueryEscape(name)
}

// cellPicker draws the cells of one serve-hot client from a seeded
// source; the same seed and client give the same sequence.
type cellPicker struct {
	rng *rand.Rand
}

func newCellPicker(seed int64, client int) *cellPicker {
	return &cellPicker{rng: rand.New(rand.NewSource(seed*clients + int64(client)))}
}

func (p *cellPicker) next(cells int) int { return p.rng.Intn(cells) }

// hotRoundRequests is how many requests each client sends per round.
const hotRoundRequests = 5000

// serveHot is a warmed node under the traffic the fleet coordinator
// sends it: POST /v1/run for one cell, without an ETag, from two
// closed-loop clients, each cell drawn uniformly over the grid. Set-up
// starts a node without a store and warms the grid with two sweeps;
// every timed request is then a memory hit. The 304 and experiment
// tiers, which no caller in the repository sends, are timed by the
// probes instead (tier.*).
type serveHot struct {
	node   *node
	hc     []*http.Client
	peers  []*vltclient.Client
	cells  []api.RunRequest
	bodies [][]byte // the warmed body of each cell
	picks  []*cellPicker
}

func (w *serveHot) setup(r *run) error {
	w.close()
	golden := goldenDigests()
	w.node = startNode(nil)
	w.hc = newClients()
	w.peers = nil
	for _, hc := range w.hc {
		w.peers = append(w.peers, peer(hc, w.node.srv.URL))
	}
	w.cells = gridCells()
	w.bodies = make([][]byte, len(w.cells))
	w.picks = []*cellPicker{newCellPicker(r.seed, 0), newCellPicker(r.seed, 1)}
	sweeps := gridSweeps()
	r.check("warm sweep", concurrently(func(i int) error { return sweep(w.peers[i], sweeps[i], golden) }))
	r.check("warm", concurrently(func(i int) error {
		for j := i; j < len(w.cells); j += clients {
			body, err := runBody(w.peers[i], w.cells[j])
			if err == nil {
				err = checkDigest(golden, runDigestKey(w.cells[j]), body)
			}
			r.check("warm run", err)
			w.bodies[j] = body
		}
		return nil
	}))
	return nil
}

func (w *serveHot) round(r *run) {
	requests := hotRoundRequests
	if r.smoke {
		requests /= 20
	}
	base := w.node.srv.URL
	before, err := scrape(w.hc[0], base)
	r.check("metricsz", err)
	r.check("client", concurrently(func(i int) error {
		p, pick := w.peers[i], w.picks[i]
		for n := 0; n < requests; n++ {
			j := pick.next(len(w.cells))
			r.op(opRun, func() error {
				body, err := runBody(p, w.cells[j])
				if err == nil && !bytes.Equal(body, w.bodies[j]) {
					err = fmt.Errorf("%s: body differs from the warmed body", w.cells[j].Cell())
				}
				return err
			})
		}
		return nil
	}))
	after, err := scrape(w.hc[0], base)
	r.check("metricsz", err)
	countServer(r, before, after)
}

func (w *serveHot) close() {
	w.node.close()
	closeClients(w.hc)
	w.node, w.hc, w.peers = nil, nil, nil
}

// restartsPerRound is how many times a serve-cold round restarts its
// node over the same store.
const restartsPerRound = 10

// serveCold measures a node from an empty store. A round has twelve
// operations of three kinds: the grid swept cold (its two halves
// concurrently, one per client), every experiment fetched with the grid
// hot, and ten restarts that each open the store, build a node and sweep
// the grid from disk. Each kind is reported under its own step.* name;
// op_ms_p50 is a restart and op_ms_p99 the slower of the other two.
// Set-up is one untimed cold sweep on a fresh store.
type serveCold struct {
	hc     []*http.Client
	rng    *rand.Rand
	golden map[string]string
}

func (w *serveCold) setup(r *run) error {
	w.close()
	w.hc = newClients()
	w.rng = rand.New(rand.NewSource(r.seed))
	w.golden = goldenDigests()
	if r.smoke {
		return nil
	}
	dir, n, err := w.fresh(r)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer n.close()
	sweeps := gridSweeps()
	r.check("warm sweep", concurrently(func(i int) error {
		return sweep(peer(w.hc[i], n.srv.URL), sweeps[i], w.golden)
	}))
	return nil
}

// fresh opens an empty store in a new scratch directory and starts a
// node over it.
func (w *serveCold) fresh(r *run) (string, *node, error) {
	dir, err := r.scratch("store")
	if err != nil {
		return "", nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return "", nil, err
	}
	return dir, startNode(st), nil
}

func (w *serveCold) round(r *run) {
	dir, n, err := w.fresh(r)
	if err != nil {
		r.check("store", err)
		return
	}
	defer os.RemoveAll(dir)
	base := n.srv.URL
	sweeps := gridSweeps()

	// Step 1: the grid, cold, as two concurrent sweeps.
	r.op(opGridCold, func() error {
		return concurrently(func(i int) error { return sweep(peer(w.hc[i], base), sweeps[i], w.golden) })
	})

	// Step 2: every experiment, with the grid hot, shared out between
	// the clients in a seeded order.
	order := w.rng.Perm(len(experimentNames))
	r.op(opExperiments, func() error {
		return concurrently(func(i int) error {
			for j := i; j < len(order); j += clients {
				name := experimentNames[order[j]]
				body, _, err := getOK(w.hc[i], experimentURL(base, name))
				if err == nil {
					err = checkDigest(w.golden, experimentDigestKey(name), body)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	})
	m, err := scrape(w.hc[0], base)
	r.check("metricsz", err)
	countServer(r, nil, m)
	n.close()

	// Step 3: restarts. Each opens the store again, builds a new node and
	// sweeps the grid from one client; every cell is a disk hit.
	restarts := restartsPerRound
	if r.smoke {
		restarts = 1
	}
	for i := 0; i < restarts; i++ {
		var rn *node
		r.op(opRestart, func() error {
			st, err := store.Open(dir, 0)
			if err != nil {
				return err
			}
			rn = startNode(st)
			p := peer(w.hc[0], rn.srv.URL)
			for _, sw := range sweeps {
				if err := sweep(p, sw, w.golden); err != nil {
					return err
				}
			}
			return nil
		})
		if rn != nil {
			m, err := scrape(w.hc[0], rn.srv.URL)
			r.check("metricsz", err)
			countServer(r, nil, m)
			rn.close()
		}
	}
}

func (w *serveCold) close() {
	closeClients(w.hc)
	w.hc = nil
}
