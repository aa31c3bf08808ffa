package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/fleet"
	"vlt/internal/netfault"
	"vlt/internal/vltclient"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// daemon's output while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestUsageErrors pins the exit codes for bad invocations.
func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, &out, &errb); code != 2 {
		t.Fatalf("positional arg: exit %d, want 2", code)
	}
	if code := run([]string{"-addr", "256.0.0.1:bad"}, &out, &errb); code != 1 {
		t.Fatalf("unlistenable addr: exit %d, want 1", code)
	}
	if code := run([]string{"-warm"}, &out, &errb); code != 2 {
		t.Fatalf("-warm (removed, now an unknown flag): exit %d, want 2", code)
	}
	// Negative counts and durations are refused before the listener
	// opens, naming the flag.
	for _, arg := range [][2]string{
		{"-jobs", "-1"}, {"-pending", "-1"}, {"-cache-bytes", "-1"},
		{"-store-bytes", "-1"}, {"-timeout", "-1s"}, {"-drain", "-1s"},
	} {
		out.Reset()
		errb.Reset()
		if code := run([]string{"-addr", "127.0.0.1:0", arg[0], arg[1]}, &out, &errb); code != 2 {
			t.Errorf("%s %s: exit %d, want 2 (stdout %q)", arg[0], arg[1], code, out.String())
		}
		if want := "vltd: " + arg[0] + " " + arg[1] + ": must not be negative"; !strings.Contains(errb.String(), want) {
			t.Errorf("%s %s: stderr %q, want %q", arg[0], arg[1], errb.String(), want)
		}
	}
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, exercises
// /healthz and one /v1/run over real HTTP, then delivers a (fake)
// SIGTERM and verifies a clean drained exit.
func TestDaemonLifecycle(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 1)
	signalNotify = func(c chan<- os.Signal, _ ...os.Signal) { sigc <- c }
	defer func() { signalNotify = nil }()

	var out, errb syncBuffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0"}, &out, &errb) }()

	// The daemon prints its resolved address before serving.
	addrRE := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var url string
	deadline := time.Now().Add(5 * time.Second)
	for url == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listen line; stdout=%q stderr=%q", out.String(), errb.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	sig := <-sigc

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz: %v, status %q", err, health.Status)
	}
	resp.Body.Close()

	resp, err = http.Get(url + "/v1/run?workload=mxm&machine=base")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"cycles"`) {
		t.Fatalf("/v1/run: status %d, body %.120s", resp.StatusCode, body)
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; stderr=%q", code, errb.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if s := out.String(); !strings.Contains(s, "draining") || !strings.Contains(s, "shutdown complete") {
		t.Fatalf("missing drain/shutdown lines in output:\n%s", s)
	}
}

// bootDaemon starts run() with the given args and returns the base URL,
// the injected signal channel, the exit-code channel and the output
// buffer.
func bootDaemon(t *testing.T, args []string, sigc chan chan<- os.Signal) (string, chan<- os.Signal, chan int, *syncBuffer) {
	t.Helper()
	out := &syncBuffer{}
	done := make(chan int, 1)
	go func() { done <- run(args, out, out) }()
	addrRE := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var url string
	deadline := time.Now().Add(5 * time.Second)
	for url == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			url = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no listen line; output=%q", out.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return url, <-sigc, done, out
}

// stopDaemon delivers the fake SIGTERM and waits for a clean exit.
func stopDaemon(t *testing.T, sig chan<- os.Signal, done chan int, out *syncBuffer) {
	t.Helper()
	sig <- syscall.SIGTERM
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d; output=%q", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestChaosSweep is the two-node fleet under a faulty network: a peer and
// a coordinator booted through run(), the coordinator reaching the peer
// only through a seeded chaos proxy that drops or answers 503 to about
// one connection in five. A 2×2 sweep loses no cell, and the routing
// counters account for every cell exactly once.
func TestChaosSweep(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 2)
	signalNotify = func(c chan<- os.Signal, _ ...os.Signal) { sigc <- c }
	defer func() { signalNotify = nil }()

	peerURL, peerSig, peerDone, peerOut := bootDaemon(t,
		[]string{"-addr", "127.0.0.1:0", "-store", t.TempDir()}, sigc)
	proxy, err := netfault.New(netfault.Config{
		Target: strings.TrimPrefix(peerURL, "http://"),
		Seed:   1,
		Drop:   0.1,
		Inject: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	coordURL, coordSig, coordDone, coordOut := bootDaemon(t,
		[]string{"-addr", "127.0.0.1:0", "-store", t.TempDir(), "-peers", proxy.Base()}, sigc)
	if !strings.Contains(coordOut.String(), "fleet of 1 peers") {
		t.Fatalf("coordinator did not report its fleet:\n%s", coordOut.String())
	}

	client := vltclient.New(vltclient.Config{BaseURL: coordURL, MaxRetries: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	grids, owned := fleetGrids(t, 2, 1)
	req := grids[0]
	trailer, err := client.Sweep(ctx, req, func(cell api.SweepCell) error {
		if cell.Error != nil {
			t.Errorf("%s/%s: %s", cell.Workload, cell.Machine, cell.Error.Message)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Cells != 4 || trailer.Errors != 0 {
		t.Fatalf("trailer: %d cells, %d errors; want 4 cells, 0 errors", trailer.Cells, trailer.Errors)
	}

	metrics := scrapeMetrics(t, coordURL)
	// The shard map keeps the coordinator's cells local and sends the
	// peer's to it; each of those arrives remotely or, when the faults
	// exhaust its retries, through the coordinator's fallback.
	remote := owned[0]
	if local := len(req.Cells()) - remote; metrics["fleet.local"] != uint64(local) {
		t.Errorf("fleet.local = %d, want %d (metrics %v)", metrics["fleet.local"], local, metrics)
	}
	if n := metrics["fleet.remote"] + metrics["fleet.fallback"]; n != uint64(remote) {
		t.Errorf("fleet.remote + fleet.fallback = %d, want %d (metrics %v)", n, remote, metrics)
	}

	stopDaemon(t, coordSig, coordDone, coordOut)
	stopDaemon(t, peerSig, peerDone, peerOut)
	for _, out := range []*syncBuffer{coordOut, peerOut} {
		if !strings.Contains(out.String(), "shutdown complete") {
			t.Errorf("no shutdown line in:\n%s", out.String())
		}
	}
}

// TestStoppedPeerFallsBack pins what a coordinator does once its peer
// shuts down, with no health probe in between: a two-node fleet sweeps
// one grid, the peer gets SIGTERM, and a sweep of new cells still
// answers every cell with the bytes a single node serves. The dead
// peer's calls fail, its breaker opens, and its cells fall back locally;
// each cell takes exactly one route.
func TestStoppedPeerFallsBack(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 3)
	signalNotify = func(c chan<- os.Signal, _ ...os.Signal) { sigc <- c }
	defer func() { signalNotify = nil }()

	grids, owned := fleetGrids(t, 2, 2)
	before, after := grids[0], grids[1]
	remoteWant, fallbackWant := owned[0], owned[1]

	// sweep runs a grid on a daemon and returns each cell's body.
	sweep := func(url string, req api.SweepRequest) [][]byte {
		t.Helper()
		client := vltclient.New(vltclient.Config{BaseURL: url})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		var bodies [][]byte
		trailer, err := client.Sweep(ctx, req, func(cell api.SweepCell) error {
			if cell.Error != nil {
				t.Errorf("%s/%s: %s", cell.Workload, cell.Machine, cell.Error.Message)
			}
			bodies = append(bodies, cell.Result)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(req.Cells()); trailer.Cells != n || trailer.Errors != 0 {
			t.Fatalf("trailer: %d cells, %d errors; want %d cells, 0 errors", trailer.Cells, trailer.Errors, n)
		}
		return bodies
	}

	peerURL, peerSig, peerDone, peerOut := bootDaemon(t, []string{"-addr", "127.0.0.1:0"}, sigc)
	coordURL, coordSig, coordDone, coordOut := bootDaemon(t,
		[]string{"-addr", "127.0.0.1:0", "-peers", peerURL}, sigc)
	sweep(coordURL, before)
	if m := scrapeMetrics(t, coordURL); m["fleet.remote"] != uint64(remoteWant) {
		t.Fatalf("live peer: fleet.remote = %d, want %d (metrics %v)", m["fleet.remote"], remoteWant, m)
	}
	stopDaemon(t, peerSig, peerDone, peerOut)

	got := sweep(coordURL, after)
	m := scrapeMetrics(t, coordURL)
	stopDaemon(t, coordSig, coordDone, coordOut)
	singleURL, singleSig, singleDone, singleOut := bootDaemon(t, []string{"-addr", "127.0.0.1:0"}, sigc)
	want := sweep(singleURL, after)
	stopDaemon(t, singleSig, singleDone, singleOut)

	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("cell %d: body after the peer stopped differs from a single node's", i)
		}
	}
	cells := uint64(len(before.Cells()) + len(after.Cells()))
	if l, r, f := m["fleet.local"], m["fleet.remote"], m["fleet.fallback"]; l+r+f != cells {
		t.Errorf("local %d + remote %d + fallback %d != %d cells", l, r, f, cells)
	}
	if m["fleet.fallback"] != uint64(fallbackWant) {
		t.Errorf("stopped peer: fleet.fallback = %d, want %d (every cell it owned)", m["fleet.fallback"], fallbackWant)
	}
}

// fleetMachines orders the machines of fleetGrids' candidates; each runs
// every workload at its default options.
var fleetMachines = []string{"base", "V2-CMP", "V4-CMP", "V4-SMT", "V2-SMT", "V4-CMT", "V2-CMP-h", "V4-CMP-h"}

// fleetGrids returns the first count sweeps of a fixed candidate list —
// two workloads by width consecutive fleetMachines, the windows disjoint
// — in which a two-member fleet's shard map gives each member at least
// one cell, with the number of cells each gives the peer. Candidates
// share no cell, so a later grid is all new to a daemon that swept an
// earlier one. The shard map follows the cell keys: when the keys move,
// the tests take other grids instead of failing on a map that puts every
// cell on one member.
func fleetGrids(t *testing.T, width, count int) ([]api.SweepRequest, []int) {
	t.Helper()
	shard := fleet.New(fleet.Config{Peers: []string{"http://peer"}})
	var grids []api.SweepRequest
	var owned []int
	for _, ws := range [][]string{{"mxm", "sage"}, {"trfd", "bt"}} {
		for i := 0; i+width <= len(fleetMachines) && len(grids) < count; i += width {
			req := api.SweepRequest{Workloads: ws, Machines: fleetMachines[i : i+width]}
			n := 0
			for _, c := range req.Cells() {
				key, err := vlt.CellKey(c.Workload, vlt.Machine(c.Machine), c.Options())
				if err != nil {
					t.Fatal(err)
				}
				if shard.Owner(key) == 1 {
					n++
				}
			}
			if n > 0 && n < len(req.Cells()) {
				grids, owned = append(grids, req), append(owned, n)
			}
		}
	}
	if len(grids) < count {
		t.Fatalf("only %d of the candidate 2×%d grids split across both members; want %d", len(grids), width, count)
	}
	return grids, owned
}

// scrapeMetrics reads a daemon's integer /metricsz lines into a map.
func scrapeMetrics(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics := map[string]uint64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err == nil {
			metrics[name] = v
		}
	}
	return metrics
}

// TestDeadPeerReadsStoreOnce: a coordinator with a store whose one peer
// is dead reads each sweep cell's store entry exactly once, at lookup,
// before any cell is routed, and recomputes the dead peer's cells
// locally. A fresh coordinator over the same store then serves every
// cell from disk with no simulation, the dead peer notwithstanding.
func TestDeadPeerReadsStoreOnce(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 2)
	signalNotify = func(c chan<- os.Signal, _ ...os.Signal) { sigc <- c }
	defer func() { signalNotify = nil }()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close() // nothing listens: every run fails

	grids, owned := fleetGrids(t, 3, 1)
	req, deadOwned := grids[0], owned[0]
	cells := req.Cells()

	sweep := func(url string) {
		t.Helper()
		client := vltclient.New(vltclient.Config{BaseURL: url})
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		trailer, err := client.Sweep(ctx, req, func(cell api.SweepCell) error {
			if cell.Error != nil {
				t.Errorf("%s/%s: %s", cell.Workload, cell.Machine, cell.Error.Message)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if trailer.Cells != len(cells) || trailer.Errors != 0 {
			t.Fatalf("trailer: %d cells, %d errors; want %d cells, 0 errors", trailer.Cells, trailer.Errors, len(cells))
		}
	}
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-store", dir, "-peers", dead}

	url, sig, done, out := bootDaemon(t, args, sigc)
	sweep(url)
	m := scrapeMetrics(t, url)
	if got := m["serve.store.misses"]; got != uint64(len(cells)) {
		t.Errorf("cold sweep: serve.store.misses = %d, want %d (one read per cell)", got, len(cells))
	}
	if got := m["fleet.fallback"]; got != uint64(deadOwned) {
		t.Errorf("cold sweep: fleet.fallback = %d, want %d (every dead peer's cell)", got, deadOwned)
	}
	if got := m["serve.flight.executed"]; got != uint64(len(cells)) {
		t.Errorf("cold sweep: serve.flight.executed = %d, want %d", got, len(cells))
	}
	stopDaemon(t, sig, done, out)

	url, sig, done, out = bootDaemon(t, args, sigc)
	sweep(url)
	m = scrapeMetrics(t, url)
	if got := m["serve.store.hits"]; got != uint64(len(cells)) {
		t.Errorf("restart: serve.store.hits = %d, want %d (every cell from disk)", got, len(cells))
	}
	if m["serve.flight.executed"] != 0 || m["fleet.fallback"] != 0 || m["serve.store.misses"] != 0 {
		t.Errorf("restart simulated or routed: executed %d, fallback %d, store misses %d",
			m["serve.flight.executed"], m["fleet.fallback"], m["serve.store.misses"])
	}
	stopDaemon(t, sig, done, out)
	if s := out.String(); !strings.Contains(s, "0 simulations") {
		t.Fatalf("restarted daemon simulated; shutdown line in %q", s)
	}
}

// TestStoreRestart is the operator's restart story over real HTTP: a
// daemon with -store renders one cell, restarts on the same directory,
// and serves the cell from disk at first touch, then from memory,
// without re-simulating.
func TestStoreRestart(t *testing.T) {
	sigc := make(chan chan<- os.Signal, 2)
	signalNotify = func(c chan<- os.Signal, _ ...os.Signal) { sigc <- c }
	defer func() { signalNotify = nil }()
	args := []string{"-addr", "127.0.0.1:0", "-store", t.TempDir()}
	fetch := func(url, tier string) []byte {
		t.Helper()
		resp, err := http.Get(url + "/v1/run?workload=mxm&machine=base")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-VLT-Cache") != tier {
			t.Fatalf("status %d, tier %q; want 200, %s", resp.StatusCode, resp.Header.Get("X-VLT-Cache"), tier)
		}
		return body
	}

	url, sig, done, out := bootDaemon(t, args, sigc)
	first := fetch(url, "miss")
	stopDaemon(t, sig, done, out)

	url, sig, done, out = bootDaemon(t, args, sigc)
	for _, tier := range []string{"disk", "hit"} {
		if !bytes.Equal(fetch(url, tier), first) {
			t.Fatalf("restarted daemon's %s body differs from the pre-restart body", tier)
		}
	}
	stopDaemon(t, sig, done, out)
	if s := out.String(); !strings.Contains(s, "0 simulations") {
		t.Fatalf("restarted daemon simulated; shutdown line in %q", s)
	}
}
