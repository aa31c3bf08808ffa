package mem

// This file implements deep copying of the cache hierarchy for machine
// forking (core.Machine.Fork). Caches are pure state — tag arrays, LRU
// stamps, bank-port schedules and counters — so cloning is a field-wise
// deep copy; the only cross-object edge is an L1's pointer to the
// shared L2, which the caller rebases onto the clone's L2.

// Clone returns a deep copy of the tag array, its arrays drawn from the
// same pool NewCache uses.
func (c *Cache) Clone() *Cache {
	n := &Cache{
		sets:      c.sets,
		assoc:     c.assoc,
		lineShift: c.lineShift,
		clock:     c.clock,
		Hits:      c.Hits,
		Misses:    c.Misses,
	}
	n.tags, n.stamp = newTagArrays(len(c.tags))
	copy(n.tags, c.tags)
	copy(n.stamp, c.stamp)
	return n
}

// Clone returns a deep copy of the shared L2, including the per
// bank-port next-free schedule that carries in-flight request timing.
func (l *L2) Clone() *L2 {
	return &L2{
		cfg:        l.cfg,
		cache:      l.cache.Clone(),
		free:       append([]uint64(nil), l.free...),
		Reads:      l.Reads,
		Writes:     l.Writes,
		BankStalls: l.BankStalls,
	}
}

// Clone returns a deep copy of the L1 backed by the given (cloned) L2.
func (l *L1) Clone(l2 *L2) *L1 {
	return &L1{
		cfg:      l.cfg,
		cache:    l.cache.Clone(),
		l2:       l2,
		Accesses: l.Accesses,
		MissTo2:  l.MissTo2,
	}
}
