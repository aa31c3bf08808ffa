package mem

import "sync"

// LineBytes is the cache line size used throughout the hierarchy.
const LineBytes = 64

// Cache is a set-associative tag array with LRU replacement. It tracks
// presence only (no data): Access returns whether the line was present and
// fills it if not.
type Cache struct {
	sets      int
	assoc     int
	lineShift uint

	tags  []uint64 // sets*assoc entries; tag = line number + 1 (0 = invalid)
	stamp []uint64 // LRU timestamps
	clock uint64

	Hits   uint64
	Misses uint64
}

// tagArrays is one cache's tag and stamp arrays, the unit the pool
// recycles between caches of the same size.
type tagArrays struct{ tags, stamp []uint64 }

// tagPools holds one *sync.Pool of *tagArrays per array length
// (sets*assoc entries; arrays of one length serve any geometry that
// needs it). Every simulated cell builds a 4 MB L2 whose two arrays
// take 1 MB; drawing them from a pool instead of the allocator keeps a
// sweep's garbage down, and sync.Pool hands idle arrays back to the GC,
// so a long-lived process holds none between sweeps.
var tagPools sync.Map

// newTagArrays returns zeroed tag and stamp arrays of n entries each,
// reused from the pool when one is free.
func newTagArrays(n int) (tags, stamp []uint64) {
	if p, ok := tagPools.Load(n); ok {
		if a, ok := p.(*sync.Pool).Get().(*tagArrays); ok {
			clear(a.tags)
			clear(a.stamp)
			return a.tags, a.stamp
		}
	}
	buf := make([]uint64, 2*n)
	return buf[:n:n], buf[n:]
}

// NewCache builds a cache of sizeBytes bytes with the given associativity
// and LineBytes lines. sizeBytes must be a multiple of assoc*LineBytes and
// the set count must be a power of two.
func NewCache(sizeBytes, assoc int) *Cache {
	lines := sizeBytes / LineBytes
	sets := lines / assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: set count must be a positive power of two")
	}
	c := &Cache{
		sets:      sets,
		assoc:     assoc,
		lineShift: 6, // log2(LineBytes)
	}
	c.tags, c.stamp = newTagArrays(sets * assoc)
	return c
}

// Release returns the tag arrays to the pool for the next cache of the
// same size. The cache is unusable afterwards: its arrays are nil,
// so a stray access panics instead of reading another cache's tags.
// Counters stay readable. Release is idempotent; a cache nobody releases
// is garbage-collected as usual.
func (c *Cache) Release() {
	if c.tags == nil {
		return
	}
	p, _ := tagPools.LoadOrStore(len(c.tags), &sync.Pool{})
	p.(*sync.Pool).Put(&tagArrays{tags: c.tags, stamp: c.stamp})
	c.tags, c.stamp = nil, nil
}

// Access probes the cache for addr, filling on miss, and reports hit.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	tag := line + 1
	c.clock++

	victim := base
	oldest := c.stamp[base]
	for w := 0; w < c.assoc; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.stamp[i] = c.clock
			c.Hits++
			return true
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}
	c.tags[victim] = tag
	c.stamp[victim] = c.clock
	c.Misses++
	return false
}

// Probe reports whether addr is present without updating state.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line) & (c.sets - 1)
	base := set * c.assoc
	tag := line + 1
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.stamp)
	c.clock = 0
	c.Hits = 0
	c.Misses = 0
}

// HitRate returns hits/(hits+misses), or 0 when unused.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}
