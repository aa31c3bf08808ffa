package vltclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlt/internal/api"
	"vlt/internal/stats"
)

// ErrCircuitOpen is returned (wrapped) when the peer's circuit breaker
// is open: the call failed fast without touching the network. Callers
// like the fleet coordinator treat it as "this peer is down, go
// elsewhere" without burning a retry budget.
var ErrCircuitOpen = errors.New("vltclient: circuit open")

// ErrTruncated is returned (wrapped) by Sweep when the NDJSON stream
// ends without its trailer line: the sweep did not finish, it was cut
// off (peer death, dropped connection), and the caller must not trust
// the cell count.
var ErrTruncated = errors.New("vltclient: sweep stream truncated")

// Config tunes a Client. Only BaseURL is required.
type Config struct {
	// BaseURL is the peer's root, e.g. "http://127.0.0.1:8317"; trailing
	// slashes are trimmed, so "http://127.0.0.1:8317/" names the same peer.
	BaseURL string
	// HTTPClient overrides the transport (nil = a fresh http.Client).
	HTTPClient *http.Client
	// MaxRetries bounds the retry attempts after the first try
	// (0 = 3; negative = no retries).
	MaxRetries int
	// BaseBackoff is the first retry's backoff before jitter (0 = 50ms);
	// it doubles per retry, capped at MaxBackoff (0 = 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit (0 = 3); BreakerCooldown is how long it stays open before
	// a half-open probe (0 = 5s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Registry, when non-nil, receives the client's traffic and breaker
	// metrics (scope it per peer: reg.Scope("peer0")).
	Registry *stats.Registry
}

func (c Config) withDefaults() Config {
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	return c
}

// Client is a typed, failure-hardened client for one vltd peer. It is
// safe for concurrent use.
type Client struct {
	cfg Config
	hc  *http.Client
	br  *breaker

	// rng jitters backoffs. Its fixed seed keeps each client's retry
	// schedule reproducible (the same discipline as internal/search:
	// never the process-global source).
	rngMu sync.Mutex
	rng   *rand.Rand

	requests, attempts, retries, failures uint64 // atomics
}

// New builds a Client for the peer at cfg.BaseURL.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		cfg: cfg,
		hc:  cfg.HTTPClient,
		br:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
		rng: rand.New(rand.NewSource(1)),
	}
	if cfg.Registry != nil {
		c.register(cfg.Registry)
	}
	return c
}

// register exposes the client's counters and breaker state.
func (c *Client) register(r *stats.Registry) {
	r.CounterFn("requests", func() uint64 { return atomic.LoadUint64(&c.requests) })
	r.CounterFn("attempts", func() uint64 { return atomic.LoadUint64(&c.attempts) })
	r.CounterFn("retries", func() uint64 { return atomic.LoadUint64(&c.retries) })
	r.CounterFn("failures", func() uint64 { return atomic.LoadUint64(&c.failures) })
	br := r.Scope("breaker")
	br.Gauge("state", func() float64 { st, _, _ := c.br.snapshot(); return float64(st) })
	br.CounterFn("trips", func() uint64 { _, t, _ := c.br.snapshot(); return t })
	br.CounterFn("rejects", func() uint64 { _, _, rj := c.br.snapshot(); return rj })
}

// transientError marks a retryable failure (network trouble, 5xx, 429).
type transientError struct {
	err        error
	retryAfter time.Duration // server-requested backoff (Retry-After), 0 = none
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// do runs one logical call under the breaker and the retry policy:
// every Client method goes through it. attempt issues one network
// attempt; a *transientError it returns is worth retrying, any other
// error is final. The breaker hears one verdict per call. A body or a
// typed answer (an *api.Error that is not transient: a 4xx or
// simulation_failed) came from a live peer and counts as a success;
// transport errors, 429 and retryable 5xx that outlast the retries
// count as a failure. The transient marker never leaves do, so no
// caller's error can look retryable to a later call.
func (c *Client) do(ctx context.Context, attempt func() error) error {
	atomic.AddUint64(&c.requests, 1)
	if !c.br.allow() {
		return fmt.Errorf("%w: %s", ErrCircuitOpen, c.cfg.BaseURL)
	}
	var lastErr error
	for try := 0; ; try++ {
		atomic.AddUint64(&c.attempts, 1)
		err := attempt()
		if err == nil {
			c.br.success()
			return nil
		}
		lastErr = err
		te, retryable := err.(*transientError)
		if !retryable || try >= c.cfg.MaxRetries || ctx.Err() != nil {
			break
		}
		atomic.AddUint64(&c.retries, 1)
		if err := c.sleep(ctx, c.backoff(try, te.retryAfter)); err != nil {
			lastErr = err
			break
		}
	}
	atomic.AddUint64(&c.failures, 1)
	if te, ok := lastErr.(*transientError); ok {
		c.br.failure()
		return te.err
	}
	var answer *api.Error
	if errors.As(lastErr, &answer) {
		c.br.success()
	} else {
		c.br.failure()
	}
	return lastErr
}

// backoff computes the wait before retry number try (0-based): the
// server's Retry-After when it sent one, otherwise capped exponential
// backoff with jitter in [d/2, d).
func (c *Client) backoff(try int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > 30*time.Second {
			retryAfter = 30 * time.Second
		}
		return retryAfter
	}
	d := c.cfg.BaseBackoff << uint(try)
	if d > c.cfg.MaxBackoff || d <= 0 {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	c.rngMu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.rngMu.Unlock()
	return half + j
}

// sleep waits d or until the context dies, whichever is first.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// url joins the base URL, a path, and — when the context carries a
// deadline — the propagated timeout_ms, so the server abandons waits
// the client has already given up on.
func (c *Client) url(ctx context.Context, path string) string {
	u := c.cfg.BaseURL + path
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		sep := "?"
		if bytes.ContainsRune([]byte(path), '?') {
			sep = "&"
		}
		u += sep + "timeout_ms=" + strconv.FormatInt(ms, 10)
	}
	return u
}

// classify turns one HTTP response into (body, error): 200 passes the
// body through verbatim, a typed envelope becomes its *api.Error, and
// transient statuses (429 with its Retry-After, any 5xx that is not a
// deterministic simulation failure) are marked retryable.
func classify(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// The connection died mid-body (drop, truncation, reset): the
		// response is unusable but the request is safely retryable —
		// the server side is idempotent and caches completed work.
		return nil, &transientError{err: fmt.Errorf("reading response: %w", err)}
	}
	if resp.StatusCode == http.StatusOK {
		return body, nil
	}
	var env api.Envelope
	typed := json.Unmarshal(body, &env) == nil && env.Error.Code != ""
	var cause error
	if typed {
		e := env.Error
		cause = &e
	} else {
		cause = fmt.Errorf("%s: %.120s", resp.Status, bytes.TrimSpace(body))
	}
	retryable := resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode >= 500 && !(typed && env.Error.Code == api.CodeSimFailed))
	if !retryable {
		return nil, cause
	}
	var ra time.Duration
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 0 {
			// "Retry-After: 0" means retry immediately; keep it non-zero
			// so backoff() can tell the header apart from its absence.
			ra = max(time.Duration(n)*time.Second, time.Millisecond)
		}
	}
	return nil, &transientError{err: cause, retryAfter: ra}
}

// post issues one POST attempt with the given JSON payload.
func (c *Client) post(ctx context.Context, path string, payload []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(ctx, path), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &transientError{err: err}
	}
	return classify(resp)
}

// RunBody simulates one cell on the peer and returns the response body
// verbatim — byte-identical to what any other caller of the same cell
// receives, which is what the fleet coordinator caches and serves.
func (c *Client) RunBody(ctx context.Context, req api.RunRequest) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var body []byte
	err = c.do(ctx, func() (err error) {
		body, err = c.post(ctx, "/v1/run", payload)
		return err
	})
	return body, err
}

// Sweep posts a grid and streams its NDJSON lines, invoking each for
// every cell line in order. It returns the trailer; if the stream ends
// without one the sweep was cut off mid-flight and the error wraps
// ErrTruncated. Transport failures before the first byte retry under
// the normal policy; a broken stream does not (the caller decides
// whether re-running the whole sweep is worth it — completed cells are
// cached server-side, so a re-run is cheap).
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest, each func(api.SweepCell) error) (api.SweepTrailer, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return api.SweepTrailer{}, err
	}
	var trailer api.SweepTrailer
	err = c.do(ctx, func() (err error) {
		trailer, err = c.sweepOnce(ctx, payload, each)
		return err
	})
	return trailer, err
}

// sweepOnce is one sweep attempt. Only failures before the first line
// are transient: once a cell line has been delivered a retry would
// replay cells, so every later error is final.
func (c *Client) sweepOnce(ctx context.Context, payload []byte, each func(api.SweepCell) error) (api.SweepTrailer, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url(ctx, "/v1/sweep"), bytes.NewReader(payload))
	if err != nil {
		return api.SweepTrailer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return api.SweepTrailer{}, ctx.Err()
		}
		return api.SweepTrailer{}, &transientError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := classify(resp)
		return api.SweepTrailer{}, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// The trailer is the only line with a "done" field.
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			var trailer api.SweepTrailer
			if err := json.Unmarshal(line, &trailer); err != nil {
				return api.SweepTrailer{}, fmt.Errorf("vltclient: bad sweep trailer: %w", err)
			}
			return trailer, nil
		}
		var cell api.SweepCell
		if err := json.Unmarshal(line, &cell); err != nil {
			return api.SweepTrailer{}, fmt.Errorf("vltclient: bad sweep line: %w", err)
		}
		if each != nil {
			if err := each(cell); err != nil {
				return api.SweepTrailer{}, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return api.SweepTrailer{}, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return api.SweepTrailer{}, fmt.Errorf("%w: stream ended without a trailer", ErrTruncated)
}
