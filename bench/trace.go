package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps in memory; later spans
// are counted as dropped. A traced serve-hot segment issues a few
// hundred thousand requests.
const maxSpans = 200_000

// tracer records spans around the calls the harness makes into each
// layer: round → operation (a request or a cell) → key, vet, render,
// store or fork. Spans stay in memory and are written as Chrome
// trace-event JSON when the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per span.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	nextID  int64
	spans   []spanRecord
	dropped int
}

// spanRecord is one finished span. Req is the id of the operation span
// the span belongs to (its own id for an operation).
type spanRecord struct {
	Name   string
	ID     int64
	Parent int64
	Req    int64
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// span is an open span.
type span struct {
	t      *tracer
	rec    spanRecord
	parent *span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (nil for a root span). Children of a
// round are operations, and each operation's descendants share its id as
// their request id.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	s := &span{t: t, parent: parent, rec: spanRecord{Name: name, ID: id, Start: time.Since(t.origin)}}
	switch {
	case parent == nil:
	case parent.parent == nil: // parent is a round: this span is an operation
		s.rec.Parent, s.rec.Req = parent.rec.ID, id
	default:
		s.rec.Parent, s.rec.Req = parent.rec.ID, parent.rec.Req
	}
	return s
}

// end closes the span.
func (s *span) end() {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.t.origin)
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if len(s.t.spans) >= maxSpans {
		s.t.dropped++
		return
	}
	s.t.spans = append(s.t.spans, s.rec)
}

// selfTimes returns each span name's total self time in milliseconds:
// the spans' durations minus the time their children cover.
func selfTimes(spans []spanRecord) map[string]float64 {
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / float64(time.Millisecond)
	}
	return out
}

// write stores the spans in dir as spans.json (Chrome trace-event
// format, loadable in chrome://tracing or Perfetto) and their per-name
// self times as self_ms.json.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	spans := append([]spanRecord(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Req,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		}
	}
	trace, err := json.Marshal(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"dropped_spans": dropped},
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), trace, 0o644); err != nil {
		return err
	}
	self, err := json.MarshalIndent(selfTimes(spans), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "self_ms.json"), append(self, '\n'), 0o644)
}
