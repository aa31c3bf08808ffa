package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/fleet"
	"vlt/internal/report"
	"vlt/internal/runner"
	"vlt/internal/stats"
	"vlt/internal/store"
	"vlt/internal/vet"
	"vlt/internal/workloads"
)

// Config tunes a Server. The zero value is fully usable: every field
// has a production default applied by New.
type Config struct {
	// Jobs bounds the number of simulations executing concurrently
	// (0 = GOMAXPROCS), across every endpoint: /v1/run and /v1/sweep
	// cells, the cells of /v1/experiment drivers, and local fleet
	// fallbacks all draw from the same Jobs slots. Coordinating an
	// experiment or waiting on a fleet peer holds no slot.
	Jobs int
	// MaxPending bounds the number of distinct cells admitted and not
	// yet finished — executing or waiting for a job slot (0 = 4x Jobs; a
	// bound below Jobs is raised to Jobs so admission never starves the
	// slots). Beyond it a new /v1/run cell is shed with 429, while sweep
	// and experiment cells wait at the bound. Coalescing onto an
	// in-flight cell always succeeds.
	MaxPending int
	// CacheBytes is the response cache's byte budget (0 = 64 MiB).
	CacheBytes int64
	// Timeout is the default per-request deadline; a request may lower
	// (never raise) it with timeout_ms (0 = 60s).
	Timeout time.Duration
	// Store, when non-nil, is the persistent result tier consulted
	// between the memory cache and simulation: disk hits replay the
	// stored bytes (X-VLT-Cache: disk) and promote into memory, and
	// every freshly rendered body spills to it. The caller opens it
	// (store.Open) so directory errors surface at startup, not per
	// request.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	j := c.Jobs
	if j <= 0 {
		j = runtime.GOMAXPROCS(0)
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 4 * j
	}
	c.MaxPending = max(c.MaxPending, j)
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// Server serves simulation and experiment requests over the vlt engine
// layers. Construct with New, mount Handler on an http.Server, and
// drain with the http.Server's Shutdown: every admitted simulation runs
// synchronously inside its handler, so draining HTTP requests drains
// simulations.
type Server struct {
	cfg    Config
	cache  *cache
	store  *store.Store // nil = no persistent tier
	flight *runner.Flight[string, []byte]
	slots  *runner.Slots // held by every simulation this server runs
	reg    *stats.Registry
	mux    *http.ServeMux
	start  time.Time
	fleet  *fleet.Coordinator // nil = every cell computes here

	// draining flips on at BeginDrain. It feeds the readiness form of
	// /healthz, never the liveness form.
	draining atomic.Bool

	mu          sync.Mutex
	requests    uint64 // HTTP requests served, by endpoint outcome
	failures    uint64 // responses with a status >= 400
	notModified uint64 // 304 revalidations (If-None-Match matched)

	// Simulation and verification entry points, indirect so the test
	// suite can substitute blocking, failing or counting implementations
	// to pin admission-control and error-path behaviour deterministically.
	runCell func(workload string, m vlt.Machine, opt vlt.Options) (vlt.Result, error)
	vetCell func(workload string, m vlt.Machine, opt vlt.Options) error
}

// New builds a Server with its cache, flight group and metric registry.
// The returned server is ready: a stored cell's first request reads it
// from disk and promotes it into memory.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheBytes),
		store:   cfg.Store,
		flight:  runner.NewFlight[string, []byte](cfg.MaxPending),
		slots:   runner.NewSlots(cfg.Jobs),
		reg:     stats.New(),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		runCell: func(w string, m vlt.Machine, o vlt.Options) (vlt.Result, error) { return vlt.Run(w, m, o) },
		vetCell: vlt.VetCell,
	}
	s.registerMetrics(s.reg)

	get := []string{http.MethodGet, http.MethodHead}
	s.route("/v1/run", s.handleRun, http.MethodGet, http.MethodHead, http.MethodPost)
	s.route("/v1/sweep", s.handleSweep, http.MethodPost)
	s.route("/v1/experiment", s.handleExperiment, get...)
	s.route("/v1/workloads", s.handleWorkloads, get...)
	s.route("/v1/machines", s.handleMachines, get...)
	s.route("/healthz", s.handleHealthz, get...)
	s.route("/metricsz", s.handleMetricsz, get...)
	return s
}

// route mounts h at path for the given methods. Any other method is a
// 405 carrying an Allow header and the JSON error envelope, counted as
// a failure like every other error response.
func (s *Server) route(path string, h http.HandlerFunc, methods ...string) {
	allow := strings.Join(methods, ", ")
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if !slices.Contains(methods, r.Method) {
			w.Header().Set("Allow", allow)
			s.writeError(w, apiError{status: http.StatusMethodNotAllowed,
				Error: api.Error{Code: api.CodeBadRequest,
					Message: fmt.Sprintf("method %s not allowed on %s; use %s", r.Method, path, allow)}})
			return
		}
		h(w, r)
	})
}

// registerMetrics exposes the server's counters under the "serve"
// scope: cache traffic, flight-group coalescing, HTTP outcomes and the
// readiness/uptime gauges. Every uint64 counter field on Server must
// appear here — the metrics-registered lint pass cross-checks it, so a
// new counter cannot silently miss /metricsz. The closures over
// mu-guarded fields take the lock themselves (the lock-taking-closure
// invariant the lock-discipline pass encodes).
func (s *Server) registerMetrics(r *stats.Registry) {
	scope := r.Scope("serve")
	s.cache.register(scope.Scope("cache"))
	if s.store != nil {
		s.store.Register(scope.Scope("store"))
	}
	flight := scope.Scope("flight")
	flight.CounterFn("submitted", func() uint64 { return uint64(s.flight.Stats().Submitted) })
	flight.CounterFn("coalesced", func() uint64 { return uint64(s.flight.Stats().Coalesced) })
	flight.CounterFn("executed", func() uint64 { return uint64(s.flight.Stats().Executed) })
	flight.CounterFn("rejected", func() uint64 { return uint64(s.flight.Stats().Rejected) })
	flight.CounterFn("inflight", func() uint64 { return uint64(s.flight.Inflight()) })
	httpScope := scope.Scope("http")
	httpScope.CounterFn("requests", func() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.requests })
	httpScope.CounterFn("failures", func() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.failures })
	httpScope.CounterFn("not_modified", func() uint64 { s.mu.Lock(); defer s.mu.Unlock(); return s.notModified })
	scope.Gauge("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	scope.Gauge("ready", func() float64 {
		if s.Ready() {
			return 1
		}
		return 0
	})
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the server's metric registry (the /metricsz source).
func (s *Server) Registry() *stats.Registry { return s.reg }

// SetFleet installs a fleet coordinator: /v1/sweep cells are then
// computed through it (sharded to the peer owning each cell key, with
// local fallback). /v1/run always computes locally, so a peer serving a
// coordinator's cell can never bounce it onward — the fleet graph has no
// cycles by construction.
func (s *Server) SetFleet(f *fleet.Coordinator) { s.fleet = f }

// BeginDrain marks the server draining: /healthz?ready=1 answers 503 so
// load balancers and smoke gates stop routing new work here, while
// in-flight requests, liveness and every other endpoint are unaffected:
// a draining node still answers /v1/run. Call it before
// http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Ready reports the readiness state: not draining.
func (s *Server) Ready() bool { return !s.draining.Load() }

// apiError pairs the wire error envelope (internal/api) with the HTTP
// status it travels under. statusClientGone is the sentinel for "the
// client disconnected; there is nobody to write to".
type apiError struct {
	status int
	api.Error
}

const statusClientGone = 499

func (s *Server) count(status int) {
	s.mu.Lock()
	s.requests++
	if status >= 400 {
		s.failures++
	}
	s.mu.Unlock()
}

// retryAfterSeconds is the Retry-After hint sent with 429 and 503
// responses.
const retryAfterSeconds = 1

func (s *Server) writeError(w http.ResponseWriter, e apiError) {
	body, _ := json.Marshal(api.Envelope{Error: e.Error})
	w.Header().Set("Content-Type", "application/json")
	if e.status == http.StatusTooManyRequests || e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	w.WriteHeader(e.status)
	w.Write(append(body, '\n'))
	s.count(e.status)
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, apiError{status: http.StatusInternalServerError,
			Error: api.Error{Code: api.CodeSimFailed, Message: err.Error()}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
	s.count(http.StatusOK)
}

// Cache-tier labels carried by the X-VLT-Cache header: which tier
// produced the response body (the bytes are identical regardless —
// that is the cache's contract).
const (
	tierMemory = "hit"  // in-memory LRU
	tierDisk   = "disk" // persistent store (promoted to memory on the way)
	tierMiss   = "miss" // freshly simulated
)

// writeBody sends a cached or freshly rendered response body, labelling
// the producing tier in a header (the body itself is byte-identical
// either way — that is the cache's contract). Its length is known, so
// it goes out with a Content-Length rather than chunked, and a client
// reads it into one buffer of that size.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, tier string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set("X-VLT-Cache", tier)
	w.Write(body)
	s.count(http.StatusOK)
}

// lookup consults the read tiers in order: memory, then (when
// configured) the persistent store. A disk hit is promoted into the
// memory cache, so the next request for the key is a memory hit.
func (s *Server) lookup(key string) (body []byte, tier string, ok bool) {
	if body, ok := s.cache.Get(key); ok {
		return body, tierMemory, true
	}
	if s.store != nil {
		if body, ok := s.store.Get(key); ok {
			s.cache.Put(key, body)
			return body, tierDisk, true
		}
	}
	return nil, "", false
}

// fill lands one freshly rendered body in every cache tier. The store
// write is best-effort: a failing disk costs restart warmth, never the
// response (the write_fails counter records it).
func (s *Server) fill(key string, body []byte) {
	s.cache.Put(key, body)
	if s.store != nil {
		s.store.Put(key, body)
	}
}

// job wraps render as the flight job of one cell key. It re-checks the
// memory tier first, because a coalescing partner may have filled the key
// since the caller's lookup (that lookup already counted the key's
// traffic, so the re-check counts nothing), then renders and fills both
// tiers. The job never sees a deadline: an abandoned cell still completes
// and lands in the tiers.
func (s *Server) job(key string, render func() ([]byte, error)) func() ([]byte, error) {
	return func() ([]byte, error) {
		if body, ok := s.cache.Peek(key); ok {
			return body, nil
		}
		body, err := render()
		if err != nil {
			return nil, err
		}
		s.fill(key, body)
		return body, nil
	}
}

// admitCell is the admission path of every cell of a multi-cell request,
// a sweep line or a cell of an experiment driver: the tier lookup (memory,
// then disk with promotion), the static verifier on a miss, then the
// flight group, where the cell waits at the pending bound instead of
// being shed (a multi-cell request must not fail because of its own
// width). A hit resolves to its body; otherwise the cell's flight task
// comes back for the caller to await.
func (s *Server) admitCell(ctx context.Context, key string, w string, m vlt.Machine, opt vlt.Options,
	d time.Duration, render func() ([]byte, error)) (body []byte, task *runner.Task[[]byte], aerr *apiError) {
	if body, _, ok := s.lookup(key); ok {
		return body, nil, nil
	}
	if e := s.vetCheck(w, m, opt); e != nil {
		return nil, nil, e
	}
	task, _, err := s.flight.Submit(ctx, key, s.job(key, render))
	if err != nil {
		return nil, nil, s.waitError(err, d)
	}
	return nil, task, nil
}

// waitError maps a failed flight wait onto the typed envelope.
func (s *Server) waitError(err error, d time.Duration) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout,
			Error: api.Error{Code: api.CodeTimeout,
				Message: fmt.Sprintf("deadline of %s exceeded; the simulation continues and will be cached", d)}}
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		return &apiError{status: statusClientGone,
			Error: api.Error{Code: api.CodeTimeout, Message: "client disconnected"}}
	default:
		return &apiError{status: http.StatusInternalServerError,
			Error: api.Error{Code: api.CodeSimFailed,
				Message: firstLine(err.Error()), Diagnostic: report.Diagnose("vltd", err)}}
	}
}

// serveKeyed answers one single-response request (/v1/run,
// /v1/experiment) for key: the conditional-request fast path, the tier
// lookup, and on a miss compute, which must produce the key's body and
// fill the tiers with it. The caller passes the key's strong ETag, its
// store fingerprint (format version ⊕ key), so an If-None-Match match
// proves the client already holds the exact bytes this content-addressed
// key can ever produce at this version — 304, no lookup, no simulation. A
// format bump changes the fingerprint and the stale tag re-serves a full
// 200. The request's deadline (the server default, lowered by timeout_ms)
// bounds compute's waits.
func (s *Server) serveKeyed(w http.ResponseWriter, r *http.Request, key, etag string,
	compute func(ctx context.Context, d time.Duration) ([]byte, *apiError)) {
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatch(match, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		s.mu.Lock()
		s.requests++
		s.notModified++
		s.mu.Unlock()
		return
	}
	body, tier, ok := s.lookup(key)
	var aerr *apiError
	if !ok {
		d := s.timeout(r)
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		body, aerr = compute(ctx, d)
		tier = tierMiss
	}
	switch {
	case aerr == nil:
		w.Header().Set("ETag", etag)
		s.writeBody(w, body, tier)
	case aerr.status == statusClientGone:
		s.count(http.StatusGatewayTimeout)
	default:
		s.writeError(w, *aerr)
	}
}

// etagMatch implements If-None-Match comparison against one strong
// entity tag: a comma-separated tag list, the wildcard, and clients
// that replay the tag in weak form all revalidate.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// timeout resolves a request's wait deadline: the server default,
// lowered (never raised) by a timeout_ms query parameter. The comparison
// is in milliseconds, so a huge timeout_ms cannot overflow the Duration.
func (s *Server) timeout(r *http.Request) time.Duration {
	d := s.cfg.Timeout
	ms, err := strconv.ParseInt(r.URL.Query().Get("timeout_ms"), 10, 64)
	if err == nil && ms > 0 && ms < d.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	return d
}

// decodeStrict decodes a JSON request body into v, refusing unknown
// fields: a misspelt field would otherwise fall back to its default and
// serve a different cell.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parseRunRequest reads one /v1/run cell from a POST body or a GET query
// (machine defaults to base) and refuses malformed input with a 400.
func (s *Server) parseRunRequest(r *http.Request) (api.RunRequest, *apiError) {
	var req api.RunRequest
	if r.Method == http.MethodPost {
		if err := decodeStrict(r.Body, &req); err != nil {
			return req, &apiError{status: http.StatusBadRequest,
				Error: api.Error{Code: api.CodeBadRequest, Message: "bad JSON body: " + err.Error()}}
		}
		// The key clamps a scale below 1 to 1, so a negative scale would
		// be served as the default instead of refused as GET refuses it.
		// Negative lanes and threads fail in core.ByName.
		if req.Scale < 0 {
			return req, &apiError{status: http.StatusBadRequest,
				Error: api.Error{Code: api.CodeBadRequest,
					Message: fmt.Sprintf("bad scale %d: want a non-negative integer", req.Scale)}}
		}
	} else {
		q := r.URL.Query()
		req.Workload = q.Get("workload")
		req.Machine = q.Get("machine")
		for _, f := range []struct {
			name string
			dst  *int
		}{{"scale", &req.Scale}, {"lanes", &req.Lanes}, {"threads", &req.Threads}} {
			v := q.Get(f.name)
			if v == "" {
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return req, &apiError{status: http.StatusBadRequest,
					Error: api.Error{Code: api.CodeBadRequest,
						Message: fmt.Sprintf("bad %s %q: want a non-negative integer", f.name, v)}}
			}
			*f.dst = n
		}
	}
	if req.Workload == "" {
		return req, &apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest,
				Message: "missing workload (try /v1/workloads for the list)"}}
	}
	if req.Machine == "" {
		req.Machine = string(vlt.MachineBase)
	}
	return req, nil
}

// renderCell simulates one cell locally, holding one of the server's
// slots only while it simulates, and renders its canonical body through
// the shared api constructor — the single render path for /v1/run, sweep
// cells, experiment cells and the fleet coordinator's degraded-mode
// fallback, which is what keeps bodies byte-identical across nodes.
func (s *Server) renderCell(w string, m vlt.Machine, opt vlt.Options) ([]byte, error) {
	var res vlt.Result
	var err error
	s.slots.Do(func() { res, err = s.runCell(w, m, opt) })
	if err != nil {
		return nil, err
	}
	return api.Marshal(api.RunResponseFrom(res))
}

// vetCheck is the miss-path admission check for one cell: the static
// verifier runs before the cell may occupy a flight slot. A cache hit
// skips it — a cached response's cell already passed both the verifier
// and the functional check. It is also the miss path's only refusal of
// a configuration the machine would not build (VetCell resolves and
// validates the cell first): the cell key deliberately does not
// validate, so that a sweep streams such a cell as a per-cell 400, and
// this check answers it 400 before any slot. It costs about 1% of a
// miss (VetCell takes ~45µs on BenchmarkServeCellCold's ~6ms cell).
func (s *Server) vetCheck(w string, m vlt.Machine, opt vlt.Options) *apiError {
	if err := s.vetCell(w, m, opt); err != nil {
		var ve *vet.Error
		if errors.As(err, &ve) {
			return &apiError{status: http.StatusUnprocessableEntity,
				Error: api.Error{Code: api.CodeVetFailed,
					Message: firstLine(err.Error()), Diagnostic: report.Diagnose("vltd", err)}}
		}
		return &apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest, Message: err.Error()}}
	}
	return nil
}

// handleRun serves one cell. Unlike a sweep or experiment cell, a new
// key beyond the pending bound is shed with 429 (Flight.TrySubmit): a
// single-cell caller can retry, and shedding keeps the queue short.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, aerr := s.parseRunRequest(r)
	if aerr != nil {
		s.writeError(w, *aerr)
		return
	}
	m, opt := vlt.Machine(req.Machine), req.Options()
	key, err := vlt.CellKey(req.Workload, m, opt)
	if err != nil {
		s.writeError(w, apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest, Message: err.Error()}})
		return
	}
	s.serveKeyed(w, r, key, store.ETag(key), func(ctx context.Context, d time.Duration) ([]byte, *apiError) {
		if e := s.vetCheck(req.Workload, m, opt); e != nil {
			return nil, e
		}
		task, _, admitted := s.flight.TrySubmit(key, s.job(key, func() ([]byte, error) {
			return s.renderCell(req.Workload, m, opt)
		}))
		if !admitted {
			return nil, &apiError{status: http.StatusTooManyRequests,
				Error: api.Error{Code: api.CodeOverloaded,
					Message: fmt.Sprintf("at capacity: %d requests in flight; retry after %ds",
						s.flight.Inflight(), retryAfterSeconds)}}
		}
		body, err := task.WaitContext(ctx)
		if err != nil {
			return nil, s.waitError(err, d)
		}
		return body, nil
	})
}

// ExperimentResponse is one /v1/experiment result: the dataset the
// driver computed plus its rendered table.
type ExperimentResponse struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
	Data  any    `json:"data,omitempty"`
	Text  string `json:"text"`
}

// experimentKey is the cache key of one /v1/experiment result — like a
// cell key, it fully addresses the content (driver name and scale).
func experimentKey(name string, scale int) string {
	return fmt.Sprintf("experiment|%s|scale=%d", name, scale)
}

// handleExperiment serves one entry of the vlt.Experiments catalogue by
// name. On a miss its driver runs in the handler on a fresh engine over
// cellSource, so its cells are served by the cache tiers and flight group
// and its memo dies with the request.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	name := q.Get("name")
	exp, ok := vlt.LookupExperiment(name)
	if !ok {
		status, code := http.StatusNotFound, api.CodeNotFound
		if name == "" {
			status, code = http.StatusBadRequest, api.CodeBadRequest
		}
		var names []string
		for _, e := range vlt.Experiments() {
			names = append(names, e.Name)
		}
		s.writeError(w, apiError{status: status,
			Error: api.Error{Code: code,
				Message: fmt.Sprintf("unknown experiment %q; have %s", name, strings.Join(names, ", "))}})
		return
	}
	scale := 1
	if v := q.Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, apiError{status: http.StatusBadRequest,
				Error: api.Error{Code: api.CodeBadRequest,
					Message: fmt.Sprintf("bad scale %q: want a positive integer", v)}})
			return
		}
		scale = n
	}
	key := experimentKey(name, scale)
	s.serveKeyed(w, r, key, store.ETag(key), func(ctx context.Context, d time.Duration) ([]byte, *apiError) {
		body, err := runner.Guard(key, func() ([]byte, error) {
			data, text, err := exp.Run(vlt.NewEngineFrom(s.cellSource(ctx, d)), scale)
			if err != nil {
				return nil, err
			}
			return api.Marshal(ExperimentResponse{Name: name, Scale: scale, Data: data, Text: text})
		})
		if err != nil {
			return nil, s.waitError(err, d)
		}
		s.fill(key, body)
		return body, nil
	})
}

// cellSource is the CellSource of the engine behind one /v1/experiment
// request. Every cell takes a sweep cell's admission path (admitCell), so
// it is served from memory or disk when any earlier run, sweep or
// experiment computed it, coalesces with the same cell in flight, and
// fills both tiers when simulated. Its Result is decoded from the cell's
// canonical run body. The handler's goroutine coordinates the driver, so
// it holds neither a slot nor a pending entry. Experiment cells always
// compute locally: the fleet routes api.RunRequests, which cannot
// express every Options field (NoLaneReclaim).
func (s *Server) cellSource(ctx context.Context, d time.Duration) vlt.CellSource {
	return func(w string, m vlt.Machine, opt vlt.Options) (vlt.Result, error) {
		key, err := vlt.CellKey(w, m, opt)
		if err != nil {
			return vlt.Result{}, err
		}
		body, task, aerr := s.admitCell(ctx, key, w, m, opt, d, func() ([]byte, error) {
			return s.renderCell(w, m, opt)
		})
		if aerr != nil {
			if err := ctx.Err(); err != nil {
				return vlt.Result{}, err // the deadline struck at the pending bound
			}
			return vlt.Result{}, errors.New(aerr.Message) // a paper cell the verifier rejects
		}
		if task != nil {
			if body, err = task.WaitContext(ctx); err != nil {
				return vlt.Result{}, err
			}
		}
		var resp api.RunResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return vlt.Result{}, err
		}
		return resp.Result(), nil
	}
}

// WorkloadInfo describes one servable workload (/v1/workloads).
type WorkloadInfo struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, wl := range workloads.All() {
		out = append(out, WorkloadInfo{
			Name:        wl.Name,
			Class:       wl.Class.String(),
			Description: wl.Description,
		})
	}
	s.writeJSON(w, struct {
		Workloads []WorkloadInfo `json:"workloads"`
	}{out})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(vlt.Machines()))
	for _, m := range vlt.Machines() {
		names = append(names, string(m))
	}
	s.writeJSON(w, struct {
		Machines []string `json:"machines"`
	}{names})
}

// handleHealthz serves both health forms. The bare endpoint is
// liveness: it answers "ok" whenever the process can serve HTTP at all.
// With ?ready=1 it is readiness: 503 while the server is draining
// (BeginDrain), so load balancers and smoke gates stop routing work to
// a node on its way out. Fleet coordinators do not ask it: a peer's one
// health verdict is its vltclient breaker.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := api.HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Inflight:      s.flight.Inflight(),
	}
	if v := r.URL.Query().Get("ready"); v == "1" || v == "true" {
		if !s.Ready() {
			s.writeError(w, apiError{status: http.StatusServiceUnavailable,
				Error: api.Error{Code: api.CodeNotReady, Message: "vltd is draining"}})
			return
		}
		resp.Status = "ready"
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Snapshot().String())
	s.count(http.StatusOK)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
