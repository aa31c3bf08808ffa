package mem

import (
	"fmt"
	"math"

	"vlt/internal/stats"
)

// L2Config parameterizes the shared second-level cache.
type L2Config struct {
	SizeBytes int // capacity
	Assoc     int // associativity
	Banks     int // word-interleaved banks
	BankPorts int // accesses each bank accepts per cycle
	HitLat    int // cycles from bank service to data
	MissLat   int // cycles on miss, including DRAM

	// PlainBanks disables the XOR bank hash (bank = word mod Banks).
	// The default hashed mapping breaks the pathological power-of-two
	// stride conflicts the Tarantula design avoided with pseudo-random
	// bank indexing; the plain mapping is kept for the ablation study.
	PlainBanks bool
}

// DefaultL2Config returns the paper's Table 3 parameters. The banks are
// dual-ported: the paper's L2 is "highly banked to provide a large number
// of ports" for the up-to-24 words/cycle the lanes can demand.
func DefaultL2Config() L2Config {
	return L2Config{SizeBytes: 4 << 20, Assoc: 4, Banks: 16, BankPorts: 2, HitLat: 10, MissLat: 100}
}

// L2 models the shared, highly banked second-level cache. Words are
// interleaved across banks (bank = word address mod Banks); each bank
// accepts one request per cycle, so strided and indexed vector accesses
// that collide on a bank serialize, while unit-stride accesses spread
// conflict-free — the vector-length versus stride trade-off the paper
// discusses.
type L2 struct {
	cfg   L2Config
	cache *Cache
	free  []uint64 // per bank-port next-free cycle (Banks*BankPorts entries)

	Reads      uint64
	Writes     uint64
	BankStalls uint64 // cycles lost to bank conflicts
}

// NewL2 builds the shared L2.
func NewL2(cfg L2Config) *L2 {
	return &L2{
		cfg:   cfg,
		cache: NewCache(cfg.SizeBytes, cfg.Assoc),
		free:  make([]uint64, cfg.Banks*cfg.BankPorts),
	}
}

// Cache exposes the tag array (for statistics).
func (l *L2) Cache() *Cache { return l.cache }

// NextEvent reports the earliest future cycle at which the cache can
// change state on its own: never. The memory hierarchy is pull-based —
// Access/AccessBulk resolve the complete timing of a request the moment
// it is made, and the latency materializes as the requesting uop's
// DoneCycle, which the pipeline models already report as their own next
// events. The method exists so the machine's event-horizon scan can
// treat every component uniformly.
func (l *L2) NextEvent(now uint64) uint64 { return math.MaxUint64 }

// RegisterMetrics registers the shared cache's counters on r (scoped to
// "l2" by the machine model).
func (l *L2) RegisterMetrics(r *stats.Registry) {
	r.Counter("reads", &l.Reads)
	r.Counter("writes", &l.Writes)
	r.Counter("bank_stalls", &l.BankStalls)
	r.Counter("tag.hits", &l.cache.Hits)
	r.Counter("tag.misses", &l.cache.Misses)
	r.Gauge("hit_rate", l.cache.HitRate)
}

// CheckInvariants verifies the cache's counter consistency. Bulk vector
// accesses count every element in Reads/Writes but probe the tag array
// only once per distinct line, so tag traffic is bounded by (not equal
// to) the request count.
func (l *L2) CheckInvariants() error {
	if l.cache.Hits+l.cache.Misses > l.Reads+l.Writes {
		return fmt.Errorf("mem: l2 counters inconsistent: tag hits %d + misses %d > reads %d + writes %d",
			l.cache.Hits, l.cache.Misses, l.Reads, l.Writes)
	}
	return nil
}

func (l *L2) bank(addr uint64) int {
	w := addr / 8
	if !l.cfg.PlainBanks {
		// XOR-fold the upper word-address bits into the bank index so
		// power-of-two strides spread across banks (unit stride remains
		// conflict-free: the fold is constant within each 16-word run).
		w ^= (w >> 4) ^ (w >> 8) ^ (w >> 12)
	}
	return int(w) % l.cfg.Banks
}

// serve queues one request on bank b arriving at cycle at, picking the
// bank port that frees earliest, and returns the service start cycle.
func (l *L2) serve(b int, at uint64) uint64 {
	base := b * l.cfg.BankPorts
	best := base
	for p := base + 1; p < base+l.cfg.BankPorts; p++ {
		if l.free[p] < l.free[best] {
			best = p
		}
	}
	start := at
	if l.free[best] > start {
		l.BankStalls += l.free[best] - start
		start = l.free[best]
	}
	l.free[best] = start + 1
	return start
}

// Access services a single request (one word, or one line fill on behalf
// of an L1) arriving at cycle now. It returns the completion cycle.
func (l *L2) Access(now uint64, addr uint64, write bool) uint64 {
	if write {
		l.Writes++
	} else {
		l.Reads++
	}
	start := l.serve(l.bank(addr), now)
	lat := uint64(l.cfg.HitLat)
	if !l.cache.Access(addr) {
		lat = uint64(l.cfg.MissLat)
	}
	return start + lat
}

// BulkResult describes the timing of a vector element access burst.
type BulkResult struct {
	FirstDone uint64 // completion of the first element group (chaining point)
	LastIssue uint64 // cycle the final element was accepted by its bank
	Done      uint64 // completion of the last element
}

// AccessBulk services a vector memory instruction's element addresses.
// The requester feeds perCycle addresses per cycle (one per lane in the
// thread's partition); each element queues at its bank. Cache tags are
// probed once per distinct line, in order.
func (l *L2) AccessBulk(now uint64, addrs []uint64, write bool, perCycle int) BulkResult {
	if perCycle < 1 {
		perCycle = 1
	}
	res := BulkResult{FirstDone: now, LastIssue: now, Done: now}
	if len(addrs) == 0 {
		return res
	}
	if write {
		l.Writes += uint64(len(addrs))
	} else {
		l.Reads += uint64(len(addrs))
	}
	var lastLine = ^uint64(0)
	lastLineHit := false
	for i, addr := range addrs {
		issue := now + uint64(i/perCycle)
		start := l.serve(l.bank(addr), issue)

		line := addr / LineBytes
		if line != lastLine {
			lastLine = line
			lastLineHit = l.cache.Access(addr)
		}
		lat := uint64(l.cfg.HitLat)
		if !lastLineHit {
			lat = uint64(l.cfg.MissLat)
		}
		fin := start + lat
		if fin > res.Done {
			res.Done = fin
		}
		if start > res.LastIssue {
			res.LastIssue = start
		}
		if i < perCycle && fin > res.FirstDone {
			res.FirstDone = fin
		}
	}
	if res.FirstDone > res.Done {
		res.FirstDone = res.Done
	}
	return res
}
