package api

import (
	"encoding/json"
	"fmt"

	"vlt"
)

// Error is the typed error envelope shared by every endpoint and by the
// per-cell error slot of a sweep stream. Code is stable and
// machine-readable, Message is one line, Cell names the simulation cell
// the error belongs to (sweep streams only), and Diagnostic carries the
// full report.Diagnose text for simulation and verification failures.
type Error struct {
	Code       string `json:"code"`
	Message    string `json:"message"`
	Cell       string `json:"cell,omitempty"`
	Diagnostic string `json:"diagnostic,omitempty"`
}

// Error implements the error interface, so a decoded envelope can flow
// through ordinary error returns on the client side.
func (e *Error) Error() string {
	if e.Cell != "" {
		return fmt.Sprintf("%s (%s): %s", e.Code, e.Cell, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Envelope is the top-level JSON error body: {"error": {...}}.
type Envelope struct {
	Error Error `json:"error"`
}

// Error codes carried by Error.Code.
const (
	CodeBadRequest  = "bad_request"
	CodeNotFound    = "not_found"
	CodeVetFailed   = "vet_failed"
	CodeOverloaded  = "overloaded"
	CodeTimeout     = "timeout"
	CodeSimFailed   = "simulation_failed"
	CodeNotReady    = "not_ready"
	CodeUnavailable = "unavailable"
)

// RunRequest is one /v1/run request: a single workload x machine cell.
// GET encodes it as query parameters, POST as this JSON object.
type RunRequest struct {
	Workload string `json:"workload"`
	Machine  string `json:"machine"`
	Scale    int    `json:"scale,omitempty"`
	Lanes    int    `json:"lanes,omitempty"`
	Threads  int    `json:"threads,omitempty"`
}

// Options maps the request's tuning fields onto vlt.Options.
func (r RunRequest) Options() vlt.Options {
	return vlt.Options{Scale: r.Scale, Lanes: r.Lanes, Threads: r.Threads}
}

// Cell renders the request's human-readable cell name, the value carried
// in Error.Cell: "workload/machine", then "@xN" for a scale above 1 and
// ",lanes=N", ",threads=N" for each option that is set, so two distinct
// cells of one sweep never share a name.
func (r RunRequest) Cell() string {
	s := r.Workload + "/" + r.Machine
	if r.Scale > 1 {
		s += fmt.Sprintf("@x%d", r.Scale)
	}
	if r.Lanes != 0 {
		s += fmt.Sprintf(",lanes=%d", r.Lanes)
	}
	if r.Threads != 0 {
		s += fmt.Sprintf(",threads=%d", r.Threads)
	}
	return s
}

// RunResponse is one /v1/run result: the headline timing plus the full
// metric registry snapshot of the simulated machine.
type RunResponse struct {
	Workload   string          `json:"workload"`
	Machine    string          `json:"machine"`
	Threads    int             `json:"threads"`
	Cycles     uint64          `json:"cycles"`
	Retired    uint64          `json:"retired"`
	VecIssued  uint64          `json:"vec_issued"`
	VecElemOps uint64          `json:"vec_elem_ops"`
	IPC        float64         `json:"ipc"`
	Util       vlt.Utilization `json:"util"`
	Verified   bool            `json:"verified"`
	Metrics    vlt.Metrics     `json:"metrics"`
}

// RunResponseFrom builds the wire response for one simulation result.
// Every path that renders a run body — the serving layer's /v1/run, the
// sweep stream, the fleet coordinator's degraded-mode local fallback —
// must go through this one constructor so the bytes stay identical no
// matter which node computed the cell.
func RunResponseFrom(res vlt.Result) RunResponse {
	return RunResponse{
		Workload:   res.Workload,
		Machine:    string(res.Machine),
		Threads:    res.Threads,
		Cycles:     res.Cycles,
		Retired:    res.Retired,
		VecIssued:  res.VecIssued,
		VecElemOps: res.VecElemOps,
		IPC:        res.IPC(),
		Util:       res.Util,
		Verified:   res.Verified,
		Metrics:    res.Metrics,
	}
}

// Result inverts RunResponseFrom for the fields a run body carries: the
// identity, the counts, Verified and Metrics. A vlt.Engine derives Util
// and the Table-4 characterization from Metrics, so a decoded Result
// equals the one the simulation returned.
func (r RunResponse) Result() vlt.Result {
	return vlt.Result{
		Workload:   r.Workload,
		Machine:    vlt.Machine(r.Machine),
		Threads:    r.Threads,
		Cycles:     r.Cycles,
		Retired:    r.Retired,
		VecIssued:  r.VecIssued,
		VecElemOps: r.VecElemOps,
		Verified:   r.Verified,
		Metrics:    r.Metrics,
	}
}

// Marshal renders a response body in the serving layer's canonical form:
// compact JSON plus a trailing newline. The same bytes are cached,
// replayed and compared across nodes, so there is exactly one renderer.
func Marshal(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// SweepRequest is the /v1/sweep POST body: the cross product of
// workloads x machines x scales, each cell simulated with the shared
// tuning fields. Scales defaults to {1}.
type SweepRequest struct {
	Workloads []string `json:"workloads"`
	Machines  []string `json:"machines"`
	Scales    []int    `json:"scales,omitempty"`
	Lanes     int      `json:"lanes,omitempty"`
	Threads   int      `json:"threads,omitempty"`
}

// Cells expands the grid in deterministic row-major order (workload
// outermost, then machine, then scale) — the order the sweep stream
// emits its lines in.
func (r SweepRequest) Cells() []RunRequest {
	scales := r.Scales
	if len(scales) == 0 {
		scales = []int{1}
	}
	cells := make([]RunRequest, 0, len(r.Workloads)*len(r.Machines)*len(scales))
	for _, w := range r.Workloads {
		for _, m := range r.Machines {
			for _, sc := range scales {
				cells = append(cells, RunRequest{
					Workload: w, Machine: m, Scale: sc,
					Lanes: r.Lanes, Threads: r.Threads,
				})
			}
		}
	}
	return cells
}

// SweepCell is one NDJSON line of a sweep stream: the cell's grid index
// and coordinates, then either the cell's /v1/run response body verbatim
// (Result) or its typed error (Error) — never both. A failing cell
// occupies its line and the stream continues. The field order is part
// of the wire contract: result is the last member of a line, so a
// client finds it by reading only the header before it and passes the
// body through unparsed (vltclient does).
type SweepCell struct {
	Index    int             `json:"index"`
	Workload string          `json:"workload"`
	Machine  string          `json:"machine"`
	Scale    int             `json:"scale,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    *Error          `json:"error,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep stream. Its presence
// is the completion contract: a client that never sees a trailer knows
// the stream was truncated (network fault, server death) rather than
// finished, and Cells/Errors let it audit that no line was lost.
type SweepTrailer struct {
	Done   bool `json:"done"`
	Cells  int  `json:"cells"`
	Errors int  `json:"errors"`
}

// HealthResponse is the /healthz body. Status is "ok" for the liveness
// form and "ready" for the readiness form (a draining node answers the
// readiness form with a 503 error envelope instead).
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Inflight      int     `json:"inflight"`
}
