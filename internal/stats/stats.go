package stats

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// metric is one registered source. Exactly one field is non-nil.
type metric struct {
	counter *uint64        // plain counter, read at snapshot time
	intFn   func() uint64  // derived integer (sums, int64 adapters)
	gauge   func() float64 // derived ratio/percentage
	hist    func() []int64 // histogram buckets, expanded per non-zero bucket
}

// Registry holds the metric name space. Scoped views created with Scope
// share the same underlying table with a name prefix.
type Registry struct {
	prefix string
	table  map[string]metric
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{table: make(map[string]metric)}
}

// Scope returns a view of the registry that prefixes every registered
// name with name + ".". Scopes nest.
func (r *Registry) Scope(name string) *Registry {
	return &Registry{prefix: r.prefix + name + ".", table: r.table}
}

func (r *Registry) add(name string, m metric) {
	full := r.prefix + name
	if full == "" {
		panic("stats: empty metric name")
	}
	if _, dup := r.table[full]; dup {
		panic("stats: duplicate metric " + full)
	}
	r.table[full] = m
}

// Counter registers a plain uint64 counter by pointer. The owner keeps
// incrementing the field directly; the registry reads it at snapshot
// time, so the hot path is untouched.
func (r *Registry) Counter(name string, src *uint64) {
	if src == nil {
		panic("stats: nil counter " + r.prefix + name)
	}
	r.add(name, metric{counter: src})
}

// CounterFn registers a derived integer metric (e.g. a sum across units,
// or an int64 field adapted through a closure).
func (r *Registry) CounterFn(name string, fn func() uint64) {
	if fn == nil {
		panic("stats: nil counter func " + r.prefix + name)
	}
	r.add(name, metric{intFn: fn})
}

// Gauge registers a derived float metric (rates, percentages, averages).
func (r *Registry) Gauge(name string, fn func() float64) {
	if fn == nil {
		panic("stats: nil gauge func " + r.prefix + name)
	}
	r.add(name, metric{gauge: fn})
}

// Histogram registers a bucketed census. At snapshot time each non-zero
// bucket i expands to one integer value named "name[i]" (index
// zero-padded to two digits so lexical order is numeric order).
func (r *Registry) Histogram(name string, fn func() []int64) {
	if fn == nil {
		panic("stats: nil histogram func " + r.prefix + name)
	}
	r.add(name, metric{hist: fn})
}

// Has reports whether a metric (or, for histograms, its base name) is
// registered under the full name.
func (r *Registry) Has(name string) bool {
	_, ok := r.table[name]
	return ok
}

// Names returns every registered metric name (histograms by base name),
// sorted.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.table))
	for n := range r.table {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumMetrics returns the number of registered metrics in the
// registry's underlying table (scoped views share the table, so the
// count is registry-wide). The machine's guard auditor uses it to
// detect registration after the run has started.
func (r *Registry) NumMetrics() int { return len(r.table) }

// read evaluates one registered metric as a float64 (histograms read as
// their total count).
func (r *Registry) read(m metric) float64 {
	switch {
	case m.counter != nil:
		return float64(*m.counter)
	case m.intFn != nil:
		return float64(m.intFn())
	case m.gauge != nil:
		return m.gauge()
	case m.hist != nil:
		var total int64
		for _, c := range m.hist() {
			total += c
		}
		return float64(total)
	}
	return 0
}

// Float evaluates the named metric right now (0, false if unregistered).
func (r *Registry) Float(name string) (float64, bool) {
	m, ok := r.table[name]
	if !ok {
		return 0, false
	}
	return r.read(m), true
}

// Value is one exported metric sample. Integer sources keep exact
// values in Int (IsInt true); derived gauges live in Float.
type Value struct {
	Name  string
	IsInt bool
	Int   uint64
	Float float64
}

// AsFloat returns the value as a float64 regardless of kind.
func (v Value) AsFloat() float64 {
	if v.IsInt {
		return float64(v.Int)
	}
	return v.Float
}

// FormatValue renders the value alone: integers in full, floats with
// the shortest round-trip representation.
func (v Value) FormatValue() string {
	if v.IsInt {
		return strconv.FormatUint(v.Int, 10)
	}
	return strconv.FormatFloat(v.Float, 'g', -1, 64)
}

func (v Value) String() string { return v.Name + " " + v.FormatValue() }

// Snapshot is a point-in-time export of every registered metric, sorted
// by name.
type Snapshot []Value

// Snapshot evaluates every metric. Histograms expand to one entry per
// non-zero bucket.
func (r *Registry) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(r.table))
	for name, m := range r.table {
		switch {
		case m.counter != nil:
			out = append(out, Value{Name: name, IsInt: true, Int: *m.counter})
		case m.intFn != nil:
			out = append(out, Value{Name: name, IsInt: true, Int: m.intFn()})
		case m.gauge != nil:
			out = append(out, Value{Name: name, Float: m.gauge()})
		case m.hist != nil:
			for i, c := range m.hist() {
				if c <= 0 {
					continue
				}
				out = append(out, Value{
					Name:  fmt.Sprintf("%s[%02d]", name, i),
					IsInt: true,
					Int:   uint64(c),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named value from the snapshot.
func (s Snapshot) Get(name string) (Value, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i].Name >= name })
	if i < len(s) && s[i].Name == name {
		return s[i], true
	}
	return Value{}, false
}

// Uint returns the named integer metric (0 if absent or a float).
func (s Snapshot) Uint(name string) uint64 {
	if v, ok := s.Get(name); ok && v.IsInt {
		return v.Int
	}
	return 0
}

// Float returns the named metric as a float64 (0 if absent).
func (s Snapshot) Float(name string) float64 {
	if v, ok := s.Get(name); ok {
		return v.AsFloat()
	}
	return 0
}

// Map returns the snapshot as a name→value map (integers converted to
// float64; exact below 2^53, far beyond any simulated counter).
func (s Snapshot) Map() map[string]float64 {
	m := make(map[string]float64, len(s))
	for _, v := range s {
		m[v.Name] = v.AsFloat()
	}
	return m
}

// String renders the snapshot machine-readably: one "name value" line
// per metric, sorted by name.
func (s Snapshot) String() string {
	var sb strings.Builder
	for _, v := range s {
		sb.WriteString(v.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
