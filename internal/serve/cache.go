package serve

import (
	"container/list"
	"sync"

	"vlt/internal/stats"
)

// cache is the daemon's content-addressed response cache: rendered JSON
// bodies keyed by engine cell fingerprint (vlt.CellKey) or experiment
// descriptor, evicted least-recently-used under a byte-size budget.
// Storing the rendered bytes — not the Result — makes the hot path a
// map lookup plus one Write, and makes the "cached responses are
// byte-identical to cold ones" guarantee structural: a hit replays the
// exact bytes the cold request produced.
type cache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // key -> *entry element

	hits, misses, puts, evictions, oversize uint64
}

type entry struct {
	key  string
	body []byte
}

func newCache(budget int64) *cache {
	return &cache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
}

// size is an entry's budget charge: its body, its key, and a flat
// allowance for the list/map bookkeeping around them.
func size(key string, body []byte) int64 {
	const overhead = 128
	return int64(len(key)) + int64(len(body)) + overhead
}

// Get returns the cached body for key, promoting it to most recently
// used. The returned slice is shared and must not be mutated.
func (c *cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, ok := c.find(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return body, ok
}

// Peek is Get without the traffic counters: a re-check of a key whose
// lookup the caller has already counted.
func (c *cache) Peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.find(key)
}

// find returns key's body and promotes it to most recently used.
//
//vltlint:heldby mu
func (c *cache) find(key string) ([]byte, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).body, true
}

// Put stores body under key and evicts from the least-recently-used end
// until the cache fits its budget again. A body larger than the whole
// budget is not stored (it would evict everything for one entry);
// single-flight coalescing still serves the concurrent waiters.
func (c *cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size(key, body) > c.budget {
		c.oversize++
		return
	}
	if el, ok := c.items[key]; ok {
		// Identical key means identical bytes (the key is a content
		// address), so just refresh recency.
		c.ll.MoveToFront(el)
		return
	}
	c.puts++
	c.bytes += size(key, body)
	c.items[key] = c.ll.PushFront(&entry{key: key, body: body})
	for c.bytes > c.budget {
		last := c.ll.Back()
		if last == nil {
			break
		}
		e := last.Value.(*entry)
		c.ll.Remove(last)
		delete(c.items, e.key)
		c.bytes -= size(e.key, e.body)
		c.evictions++
	}
}

// Reset drops every entry (benchmarks use it to re-measure the cold
// path); the traffic counters survive.
func (c *cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
}

// register exposes the cache's traffic and occupancy under the given
// registry scope. The closures take the cache lock, so snapshots are
// safe against concurrent requests.
func (c *cache) register(r *stats.Registry) {
	locked := func(f func() uint64) func() uint64 {
		return func() uint64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	r.CounterFn("hits", locked(func() uint64 { return c.hits }))
	r.CounterFn("misses", locked(func() uint64 { return c.misses }))
	r.CounterFn("puts", locked(func() uint64 { return c.puts }))
	r.CounterFn("evictions", locked(func() uint64 { return c.evictions }))
	r.CounterFn("oversize", locked(func() uint64 { return c.oversize }))
	r.CounterFn("entries", locked(func() uint64 { return uint64(c.ll.Len()) }))
	r.CounterFn("bytes", locked(func() uint64 { return uint64(c.bytes) }))
	r.CounterFn("budget_bytes", func() uint64 { return uint64(c.budget) })
}
