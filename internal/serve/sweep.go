package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/runner"
)

// maxSweepCells bounds one sweep's grid. The full paper grid (9
// workloads x 10 machines x a handful of scales) is a few hundred
// cells; the bound only exists to stop a hostile request from queueing
// unbounded work behind one POST.
const maxSweepCells = 4096

// sweepFuture carries one grid cell from the submitting pass to the
// writing pass: either an already-resolved outcome (cache hit, vet
// rejection, admission timeout) or the cell's in-flight task.
type sweepFuture struct {
	req  api.RunRequest
	body []byte
	aerr *apiError
	task *runner.Task[[]byte]
	d    time.Duration
}

// handleSweep serves POST /v1/sweep: it expands the requested grid in
// deterministic row-major order, fans the cells out (across the local
// flight group, and — when a fleet coordinator is installed — across
// the peers owning each cell key), and streams one NDJSON line per cell
// as results land, in grid order. A failing cell contributes an error
// envelope on its line and the stream continues: one bad cell never
// kills a sweep. The final line is a trailer; a client that does not
// see it knows the stream was truncated rather than finished.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		s.writeError(w, apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest, Message: "bad JSON body: " + err.Error()}})
		return
	}
	if len(req.Workloads) == 0 || len(req.Machines) == 0 {
		s.writeError(w, apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest,
				Message: "empty grid: need at least one workload and one machine"}})
		return
	}
	for _, sc := range req.Scales {
		if sc < 1 {
			s.writeError(w, apiError{status: http.StatusBadRequest,
				Error: api.Error{Code: api.CodeBadRequest,
					Message: fmt.Sprintf("bad scale %d: want a positive integer", sc)}})
			return
		}
	}
	cells := req.Cells()
	if len(cells) > maxSweepCells {
		s.writeError(w, apiError{status: http.StatusBadRequest,
			Error: api.Error{Code: api.CodeBadRequest,
				Message: fmt.Sprintf("grid of %d cells exceeds the %d-cell bound", len(cells), maxSweepCells)}})
		return
	}
	// Resolve every cell key up front: a malformed grid (unknown
	// workload or machine, negative lanes or threads) is a 400 before the
	// stream commits to 200, not a stream full of per-cell errors.
	keys := make([]string, len(cells))
	for i, c := range cells {
		key, err := vlt.CellKey(c.Workload, vlt.Machine(c.Machine), c.Options())
		if err != nil {
			s.writeError(w, apiError{status: http.StatusBadRequest,
				Error: api.Error{Code: api.CodeBadRequest, Message: err.Error(), Cell: c.Cell()}})
			return
		}
		keys[i] = key
	}

	d := s.timeout(r)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Submitter and writer run as a two-stage pipe: the submitter walks
	// the grid admitting cells into the flight group (blocking at the
	// pending bound, where finishing cells free slots), while the writer
	// drains outcomes in grid order and streams lines. The buffered
	// channel lets the submitter run the full grid ahead of the writer,
	// so fan-out width is set by the flight group, not by stream order.
	futures := make(chan sweepFuture, len(cells))
	errCells, aborted := 0, false
	runner.Parallel(
		func() error {
			defer close(futures)
			for i, c := range cells {
				futures <- s.submitCell(ctx, keys[i], c, d)
			}
			return nil
		},
		func() error {
			written := 0
			var buf []byte
			for f := range futures {
				body, aerr := f.body, f.aerr
				if f.task != nil {
					b, err := f.task.WaitContext(ctx)
					if err != nil {
						aerr = s.waitError(err, f.d)
					} else {
						body = b
					}
				}
				if aerr != nil && aerr.status == statusClientGone {
					// Nobody is reading; stop streaming. The missing
					// trailer is the truncation signal.
					aborted = true
					return nil
				}
				line := api.SweepCell{
					Index:    written,
					Workload: f.req.Workload,
					Machine:  f.req.Machine,
					Scale:    f.req.Scale,
				}
				if aerr != nil {
					e := aerr.Error
					e.Cell = f.req.Cell()
					line.Error = &e
					errCells++
				}
				var err error
				if buf, err = appendSweepLine(buf[:0], line, body); err != nil {
					return err
				}
				if _, err = w.Write(buf); err != nil {
					aborted = true
					return nil
				}
				if flusher != nil {
					flusher.Flush()
				}
				written++
			}
			trailer, err := json.Marshal(api.SweepTrailer{Done: true, Cells: written, Errors: errCells})
			if err != nil {
				return err
			}
			if _, err := w.Write(append(trailer, '\n')); err != nil {
				aborted = true
				return nil
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		},
	)
	if aborted {
		s.count(http.StatusGatewayTimeout)
		return
	}
	s.count(http.StatusOK)
}

// submitCell starts one sweep cell through the shared admission path
// (admitCell): cache hits, vet rejections and admission timeouts resolve
// immediately; otherwise the cell's flight task rides back for the
// writer to await. When a fleet coordinator is installed the cell's
// renderer routes through it — still under this node's flight group and
// response cache, so concurrent sweeps coalesce on remote cells exactly
// as on local ones, and a remote body lands in the local cache.
func (s *Server) submitCell(ctx context.Context, key string, c api.RunRequest, d time.Duration) sweepFuture {
	m, opt := vlt.Machine(c.Machine), c.Options()
	render := func() ([]byte, error) { return s.renderCell(c.Workload, m, opt) }
	if fl := s.fleet; fl != nil {
		local := render
		render = func() ([]byte, error) { return fl.Compute(ctx, key, c, local) }
	}
	f := sweepFuture{req: c, d: d}
	f.body, f.task, f.aerr = s.admitCell(ctx, key, c.Workload, m, opt, d, render)
	return f
}

// appendSweepLine appends one NDJSON line of a sweep stream to dst:
// line's fields, then the cell's canonical run body, if any, under
// "result" (a line with an Error has no body). The header is encoded
// once and the body spliced in before its closing brace, so the body is
// never re-read.
// The bytes are exactly json.Marshal of line with Result set to the
// body, because every body the server holds is already canonical:
// api.Marshal is the one renderer, the store checks a CRC on every
// read, and the fleet coordinator checks each peer's body on receipt.
func appendSweepLine(dst []byte, line api.SweepCell, body []byte) ([]byte, error) {
	head, err := json.Marshal(line)
	if err != nil {
		return dst, err
	}
	result := bytes.TrimRight(body, "\n")
	if len(result) == 0 {
		return append(append(dst, head...), '\n'), nil
	}
	dst = append(dst, head[:len(head)-1]...)
	dst = append(dst, `,"result":`...)
	dst = append(dst, result...)
	return append(dst, '}', '\n'), nil
}
