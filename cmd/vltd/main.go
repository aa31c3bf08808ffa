package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vlt/internal/fleet"
	"vlt/internal/runner"
	"vlt/internal/serve"
	"vlt/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// signalNotify is indirect so the smoke test can inject a fake signal
// instead of signalling the test process.
var signalNotify = signal.Notify

// run is the testable entry point: it parses args, serves until a
// termination signal, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("vltd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8317", "listen address (host:port; port 0 picks a free port)")
	jobs := fs.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	pending := fs.Int("pending", 0, "max distinct cells in flight; beyond it /v1/run sheds 429s, sweep and experiment cells wait (0 = 4x jobs; never below jobs)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "response cache byte budget")
	timeout := fs.Duration("timeout", 60*time.Second, "default per-request wait deadline")
	drain := fs.Duration("drain", 30*time.Second, "shutdown grace period for in-flight simulations")
	peers := fs.String("peers", "", "comma-separated peer base URLs to shard sweep cells across")
	storeDir := fs.String("store", "", "persistent result store directory (empty = memory cache only)")
	storeBytes := fs.Int64("store-bytes", 256<<20, "persistent store byte budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "vltd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	// A negative count or duration would silently become the default
	// (or, for -drain, cut in-flight work at once instead of draining it).
	for _, f := range []struct {
		name     string
		negative bool
	}{{"jobs", *jobs < 0}, {"pending", *pending < 0}, {"cache-bytes", *cacheBytes < 0},
		{"timeout", *timeout < 0}, {"drain", *drain < 0}, {"store-bytes", *storeBytes < 0}} {
		if f.negative {
			fmt.Fprintf(stderr, "vltd: -%s %s: must not be negative\n", f.name, fs.Lookup(f.name).Value)
			return 2
		}
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeBytes)
		if err != nil {
			fmt.Fprintln(stderr, "vltd:", err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "vltd:", err)
		return 1
	}
	s := serve.New(serve.Config{
		Jobs:       *jobs,
		MaxPending: *pending,
		CacheBytes: *cacheBytes,
		Timeout:    *timeout,
		Store:      st,
	})
	if st != nil {
		fmt.Fprintf(stdout, "vltd: store %s (%d entries, %d-byte budget)\n",
			st.Dir(), st.Len(), *storeBytes)
	}
	if *peers != "" {
		urls := strings.Split(*peers, ",")
		for i, u := range urls {
			u = strings.TrimSpace(u)
			if u == "" || (!strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://")) {
				fmt.Fprintf(stderr, "vltd: bad -peers entry %q: want http(s)://host:port\n", u)
				return 2
			}
			urls[i] = u
		}
		s.SetFleet(fleet.New(fleet.Config{
			Peers:    urls,
			Registry: s.Registry().Scope("fleet"),
		}))
		fmt.Fprintf(stdout, "vltd: fleet of %d peers: %s\n", len(urls), strings.Join(urls, ", "))
	}
	hs := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(stdout, "vltd: listening on http://%s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signalNotify(sigc, os.Interrupt, syscall.SIGTERM)
	// The serve goroutine and the signal waiter run under the audited
	// pool's Parallel (the only sanctioned goroutine source). serveFailed
	// releases the waiter if Serve dies on its own (e.g. listener error),
	// so a startup failure never hangs the process.
	serveFailed := make(chan struct{})
	errs := runner.Parallel(
		func() error {
			err := hs.Serve(ln)
			close(serveFailed)
			if err == http.ErrServerClosed {
				return nil
			}
			return err
		},
		func() error {
			select {
			case sig := <-sigc:
				// Flip readiness first: load balancers see 503 on
				// /healthz?ready=1 and stop routing new work here while
				// in-flight work drains. Fleet coordinators keep sending
				// cells until Shutdown closes the listener; then their
				// calls fail and the cells fall back to local compute.
				s.BeginDrain()
				fmt.Fprintf(stdout, "vltd: %v: draining in-flight simulations (up to %s)\n", sig, *drain)
				ctx, cancel := context.WithTimeout(context.Background(), *drain)
				defer cancel()
				return hs.Shutdown(ctx)
			case <-serveFailed:
				return nil
			}
		},
	)
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(stderr, "vltd:", err)
			code = 1
		}
	}
	if code == 0 {
		snap := s.Registry().Snapshot()
		fmt.Fprintf(stdout, "vltd: shutdown complete (%d requests served, %d cache hits, %d simulations)\n",
			snap.Uint("serve.http.requests"), snap.Uint("serve.cache.hits"),
			snap.Uint("serve.flight.executed"))
	}
	return code
}
