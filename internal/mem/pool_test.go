package mem

import "testing"

// fillAll touches every line of a size-byte address range starting at base.
func fillAll(c *Cache, base uint64, size int) {
	for a := 0; a < size; a += LineBytes {
		c.Access(base + uint64(a))
	}
}

// TestPooledCacheStartsClean: a cache built on arrays its previous owner
// released misses on every line that owner held and starts with zero
// counters, and a clone built on such arrays holds exactly its parent's
// lines. sync.Pool may drop an entry, so the test retries until it has
// seen the arrays actually reused.
func TestPooledCacheStartsClean(t *testing.T) {
	const size, assoc = 8 << 10, 4 // 128 lines
	reused := false
	for try := 0; try < 100 && !reused; try++ {
		old := NewCache(size, assoc)
		fillAll(old, 0, size)
		oldTags := &old.tags[0]
		old.Release()

		c := NewCache(size, assoc)
		reused = &c.tags[0] == oldTags
		if c.Hits != 0 || c.Misses != 0 || c.clock != 0 {
			t.Fatalf("pooled cache starts with hits=%d misses=%d clock=%d", c.Hits, c.Misses, c.clock)
		}
		for a := 0; a < size; a += LineBytes {
			if c.Probe(uint64(a)) {
				t.Fatalf("pooled cache holds line %#x of its previous owner", a)
			}
		}
		fillAll(c, 0, size)
		if c.Hits != 0 || c.Misses != size/LineBytes {
			t.Fatalf("refilling a pooled cache: hits=%d misses=%d, want 0/%d", c.Hits, c.Misses, size/LineBytes)
		}

		// Dirty arrays back in the pool, then a clone of a cache holding
		// a disjoint range: the clone sees its parent's lines only.
		parent := NewCache(size, assoc)
		fillAll(parent, 1<<20, size)
		c.Release()
		clone := parent.Clone()
		for a := 0; a < size; a += LineBytes {
			if clone.Probe(uint64(a)) {
				t.Fatalf("pooled clone holds line %#x of the arrays' previous owner", a)
			}
			if !clone.Probe(1<<20 + uint64(a)) {
				t.Fatalf("pooled clone lost its parent's line %#x", 1<<20+a)
			}
		}
		if clone.Hits != parent.Hits || clone.Misses != parent.Misses || clone.clock != parent.clock {
			t.Fatal("clone counters differ from the parent's")
		}
		parent.Release()
		clone.Release()
	}
	if !reused {
		t.Fatal("the pool never handed released arrays back")
	}
}

func TestReleaseIsIdempotentAndFinal(t *testing.T) {
	c := NewCache(1024, 2)
	c.Access(0)
	c.Release()
	c.Release() // idempotent
	if c.tags != nil || c.stamp != nil {
		t.Fatal("released cache still holds its arrays")
	}
	if c.Misses != 1 {
		t.Errorf("counters must stay readable after Release: misses=%d", c.Misses)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access after Release did not panic")
		}
	}()
	c.Access(0)
}
