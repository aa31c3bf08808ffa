package mem

import (
	"fmt"

	"vlt/internal/stats"
)

// L1Config parameterizes a first-level (or lane instruction) cache.
type L1Config struct {
	SizeBytes int
	Assoc     int
	HitLat    int
}

// DefaultL1Config returns the paper's 16 KB 2-way L1 with 1-cycle hits.
func DefaultL1Config() L1Config {
	return L1Config{SizeBytes: 16 << 10, Assoc: 2, HitLat: 1}
}

// LaneICacheConfig returns the 4 KB per-lane instruction cache used when
// vector lanes run scalar threads (Section 5 of the paper).
func LaneICacheConfig() L1Config {
	return L1Config{SizeBytes: 4 << 10, Assoc: 1, HitLat: 1}
}

// L1 is a private first-level cache backed by the shared L2. Misses fetch
// whole lines from the L2 (write-allocate; write-back traffic is not
// modeled).
type L1 struct {
	cfg   L1Config
	cache *Cache
	l2    *L2

	Accesses uint64
	MissTo2  uint64
}

// NewL1 builds an L1 in front of l2.
func NewL1(cfg L1Config, l2 *L2) *L1 {
	return &L1{cfg: cfg, cache: NewCache(cfg.SizeBytes, cfg.Assoc), l2: l2}
}

// Cache exposes the tag array (for statistics).
func (l *L1) Cache() *Cache { return l.cache }

// RegisterMetrics registers the cache's counters on r (callers scope r
// to the cache's position, e.g. "su0.l1d").
func (l *L1) RegisterMetrics(r *stats.Registry) {
	r.Counter("accesses", &l.Accesses)
	r.Counter("misses", &l.MissTo2)
	r.Counter("tag.hits", &l.cache.Hits)
	r.Counter("tag.misses", &l.cache.Misses)
	r.Gauge("hit_pct", func() float64 { return 100 * l.cache.HitRate() })
}

// CheckInvariants verifies the cache's counter consistency: every access
// probes the tag array exactly once, so hits + misses must equal
// accesses, and every tag miss goes to the L2.
func (l *L1) CheckInvariants() error {
	if l.cache.Hits+l.cache.Misses != l.Accesses {
		return fmt.Errorf("mem: l1 counters inconsistent: tag hits %d + misses %d != accesses %d",
			l.cache.Hits, l.cache.Misses, l.Accesses)
	}
	if l.MissTo2 != l.cache.Misses {
		return fmt.Errorf("mem: l1 counters inconsistent: misses-to-L2 %d != tag misses %d",
			l.MissTo2, l.cache.Misses)
	}
	return nil
}

// Access services one word access arriving at cycle now and returns its
// completion cycle.
func (l *L1) Access(now uint64, addr uint64, write bool) uint64 {
	l.Accesses++
	if l.cache.Access(addr) {
		return now + uint64(l.cfg.HitLat)
	}
	l.MissTo2++
	lineAddr := addr &^ (LineBytes - 1)
	return l.l2.Access(now, lineAddr, write) + 1
}

// AccessLine services a whole-line access (instruction fetch) at cycle
// now and returns its completion cycle.
func (l *L1) AccessLine(now uint64, addr uint64) uint64 {
	return l.Access(now, addr&^(LineBytes-1), false)
}
