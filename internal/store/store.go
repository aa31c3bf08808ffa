package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vlt/internal/stats"
)

// FormatVersion is the on-disk format version, baked into every entry's
// fingerprint. Bumping it (a core-model change that alters simulated
// results, a wire-format change that alters rendered bodies) changes
// every fingerprint at once: old entries become unreachable stale files
// that Open sweeps away, and every cell re-simulates exactly once. This
// is the invalidation contract — there is no other expiry mechanism,
// because a content-addressed entry can never be stale within one
// version.
//
// Version 2: every machine preset starts from one complete Table 3
// configuration, so each cell key hashes the component parameters that
// zero fields used to stand for. No simulated result or body moved, but
// every key did, and the bump sweeps the version-1 entries at Open
// instead of leaving them to eviction.
//
// Version 3: each cell key hashes the invariant auditor's resolved on
// or off instead of "auto". The auditor's counters are in every body,
// and under version 2 one store served a cell simulated under
// VLT_AUDIT=on to a process running with it off, under the same ETag.
// No body under a fixed VLT_AUDIT moved; every key did.
//
// Version 4: core.Config lost its fault-injection, audit-interval and
// sample-selection fields, and each cell key hashes the Config with %+v,
// so every key moved. No body moved.
//
// Version 5: core.Config lost its sampling interval and its func-valued
// fork-point hook (now set only by Machine.SetForkAt), so every key
// moved again. No body moved.
//
// Version 6: the invariant auditor runs two more checks per sweep
// (su<N>.waiting and vcl.pending-counts), so guard.audit.checks moved
// in every body simulated with VLT_AUDIT=on. No key, no simulated
// count and no body simulated with the auditor off moved.
//
// Version 7: the skip_verify option is gone (every cell a store holds
// verified), and each cell key dropped its skipVerify term, so every key
// moved. No body moved.
//
// Version 8: each cell key hashes the resolved request (workload,
// machine name, lanes, threads, scale, the lane-reclaim flag and the
// auditor's on or off) instead of the Config printed with %+v, so every
// key moved. No body moved. A config refactor no longer moves a key;
// the sampled option-space golden guards model and preset changes.
const FormatVersion = 8

// magic is the first token of every entry's header line.
const magic = "vltstore"

// suffix is the entry filename extension; suffixCorrupt marks
// quarantined entries (kept for post-mortem, never read again);
// tmpPattern names in-progress writes (swept at Open — a crash
// mid-write leaves only a tmp file, never a visible entry).
const (
	suffix        = ".cell"
	suffixCorrupt = ".corrupt"
	tmpPattern    = ".tmp-*"
)

// Fingerprint returns the store fingerprint of a cache key at the
// current format version: the entry filename stem and the basis of the
// serving layer's strong ETags.
func Fingerprint(key string) string { return fingerprintAt(FormatVersion, key) }

// ETag renders key's fingerprint as a strong HTTP entity tag.
func ETag(key string) string { return `"` + Fingerprint(key) + `"` }

// ETagAt renders the entity tag key would have carried at an arbitrary
// format version. Exported for tests and migration tooling that need to
// prove a version bump invalidates client caches (an old tag must
// revalidate to a full 200, never a 304).
func ETagAt(version int, key string) string {
	return `"` + fingerprintAt(version, key) + `"`
}

func fingerprintAt(version int, key string) string {
	b := make([]byte, 0, 128)
	b = append(b, magic+"|v"...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(append(b, '|'), key...)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// entry is the in-memory index record for one on-disk entry.
type entry struct {
	fp   string // fingerprint = filename stem
	size int64  // budget charge (on-disk size + overhead)
}

// overhead is the flat per-entry budget allowance for the index and
// directory bookkeeping around the file itself.
const overhead = 256

// Store is a durable, content-addressed result store: rendered response
// bodies spilled to one flat directory, keyed by the versioned
// fingerprint of their cache key. It is safe for concurrent use; one
// mutex serializes all operations, which is deliberate — the store is
// the restart/degraded tier behind an in-memory cache, not a hot path,
// and a single lock makes the byte accounting and the janitor trivially
// race-free against concurrent reads.
//
// Durability model: Put writes to a temp file in the same directory,
// fsyncs, then renames into place — a crash leaves either the complete
// old state or the complete new state, never a torn entry. Get verifies
// a CRC-32 over the body and the embedded key before trusting bytes;
// anything that fails verification is quarantined (renamed *.corrupt)
// and reported as a miss, never an error — disk rot degrades to a
// re-simulation, not an outage.
type Store struct {
	mu     sync.Mutex
	dir    string
	budget int64
	bytes  int64
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // fingerprint -> *entry element

	hits, misses, writes, writeFails uint64
	evictions, corrupt               uint64
}

// Open opens (creating if needed) the store rooted at dir with the
// given byte budget. It sweeps crash leftovers (tmp files), deletes
// stale entries from older format versions, builds the eviction index
// from the surviving entries oldest-first (modification time), and
// enforces the budget immediately. Entries are not CRC-verified here —
// verification is per-read, so a huge store opens in O(entries) stats,
// not O(bytes) reads.
func Open(dir string, budget int64) (*Store, error) {
	if budget <= 0 {
		budget = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:    dir,
		budget: budget,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
	}
	s.mu.Lock()
	err := s.scan()
	if err == nil {
		s.evict()
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// scan builds the index from the directory contents (callers hold the
// lock).
//
//vltlint:heldby mu
func (s *Store) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type found struct {
		entry
		mtime int64
	}
	var live []found
	for _, de := range ents {
		name := de.Name()
		switch {
		case de.IsDir():
			continue
		case strings.HasPrefix(name, ".tmp-"):
			// A write that never completed; the rename never happened, so
			// nothing references it. Remove silently.
			os.Remove(filepath.Join(s.dir, name))
			continue
		case !strings.HasSuffix(name, suffix):
			continue
		}
		fp := strings.TrimSuffix(name, suffix)
		info, err := de.Info()
		if err != nil {
			continue
		}
		version, ok := s.headerVersion(filepath.Join(s.dir, name))
		switch {
		case !ok:
			// Unreadable or malformed header: quarantine now rather than
			// on first access, so the index never charges budget for it.
			s.quarantineLocked(fp)
			s.corrupt++
			continue
		case version != FormatVersion:
			// A format bump made this entry unreachable (its fingerprint
			// embeds the old version); it is dead weight, not corruption.
			os.Remove(filepath.Join(s.dir, name))
			s.evictions++
			continue
		}
		live = append(live, found{entry{fp: fp, size: info.Size() + overhead}, info.ModTime().UnixNano()})
	}
	// Oldest first, so the LRU list's back (first evicted) is the entry
	// untouched the longest across restarts.
	sort.Slice(live, func(i, j int) bool { return live[i].mtime < live[j].mtime })
	for _, f := range live {
		e := f.entry
		s.items[e.fp] = s.ll.PushFront(&entry{fp: e.fp, size: e.size})
		s.bytes += e.size
	}
	return nil
}

// header is an entry file's first line: "magic version crc keyLen bodyLen".
type header struct {
	version         int
	crc             uint32
	keyLen, bodyLen int
}

// parseHeader parses an entry's header line, without its newline, as
// Put writes it: the five fields separated by single spaces, the CRC in
// hex. ok is false when the line is not a store header at all. A
// negative length is not one: read slices the entry by these lengths.
// Nor is a line with anything after the fifth field, which fmt.Sscanf
// used to ignore: Open and Get quarantine that file as corrupt.
func parseHeader(line string) (h header, ok bool) {
	var f [5]string
	for i := range 4 {
		if f[i], line, ok = strings.Cut(line, " "); !ok {
			return header{}, false
		}
	}
	f[4] = line
	version, err1 := strconv.Atoi(f[1])
	crc, err2 := strconv.ParseUint(f[2], 16, 32)
	keyLen, err3 := strconv.Atoi(f[3])
	bodyLen, err4 := strconv.Atoi(f[4])
	if f[0] != magic || err1 != nil || err2 != nil || err3 != nil || err4 != nil || keyLen < 0 || bodyLen < 0 {
		return header{}, false
	}
	return header{version: version, crc: uint32(crc), keyLen: keyLen, bodyLen: bodyLen}, true
}

// maxHeader bounds a header line: the magic, three 20-digit decimals,
// eight hex digits, four spaces and the newline fit in it.
const maxHeader = 96

// headerVersion reads just the header line of an entry file and returns
// its format version; ok is false when the file cannot be parsed as a
// store entry at all.
func (s *Store) headerVersion(path string) (version int, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var buf [maxHeader]byte
	n, _ := io.ReadFull(f, buf[:])
	nl := bytes.IndexByte(buf[:n], '\n')
	if nl < 0 {
		return 0, false
	}
	h, ok := parseHeader(string(buf[:nl]))
	return h.version, ok
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len reports the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes reports the current budget charge.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Get returns the stored body for key, promoting the entry to most
// recently used. A missing entry is (nil, false); so is a corrupt one —
// the caller falls through to re-simulation while the bad file is
// quarantined out of the way.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body, ok := s.load(key)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return body, ok
}

// load reads and verifies one entry (callers hold the lock).
//
//vltlint:heldby mu
func (s *Store) load(key string) ([]byte, bool) {
	fp := Fingerprint(key)
	el, ok := s.items[fp]
	if !ok {
		return nil, false
	}
	body, ok := s.read(fp, key)
	if !ok {
		// Verification failed: quarantine the file and drop the index
		// entry so the budget no longer charges for it.
		s.quarantineLocked(fp)
		s.corrupt++
		s.removeLocked(el)
		return nil, false
	}
	s.ll.MoveToFront(el)
	return body, true
}

// read parses and verifies one entry file: header, embedded key, CRC
// (callers hold the lock).
//
//vltlint:heldby mu
func (s *Store) read(fp, key string) ([]byte, bool) {
	raw, err := os.ReadFile(filepath.Join(s.dir, fp+suffix))
	if err != nil {
		return nil, false
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	h, ok := parseHeader(string(raw[:nl]))
	if !ok || h.version != FormatVersion {
		return nil, false
	}
	rest := raw[nl+1:]
	if len(rest) != h.keyLen+1+h.bodyLen {
		return nil, false
	}
	if string(rest[:h.keyLen]) != key || rest[h.keyLen] != '\n' {
		return nil, false
	}
	body := rest[h.keyLen+1:]
	if crc32.ChecksumIEEE(body) != h.crc {
		return nil, false
	}
	return body, true
}

// Put durably stores body under key: temp file in the same directory,
// fsync, rename into place, then janitor eviction down to the budget.
// Storing is best-effort from the caller's point of view — a full or
// failing disk returns an error the caller may ignore (the response was
// already computed; only restart economics are lost) — but never leaves
// a torn entry visible. A body whose entry would exceed the whole
// budget is refused.
func (s *Store) Put(key string, body []byte) error {
	fp := Fingerprint(key)
	header := fmt.Sprintf("%s %d %08x %d %d\n", magic, FormatVersion, crc32.ChecksumIEEE(body), len(key), len(body))
	charge := int64(len(header)+len(key)+1+len(body)) + overhead

	s.mu.Lock()
	defer s.mu.Unlock()
	if charge > s.budget {
		return fmt.Errorf("store: entry for %q (%d bytes) exceeds the %d-byte budget", key, charge, s.budget)
	}
	if el, ok := s.items[fp]; ok {
		// Content-addressed: an existing fingerprint already holds these
		// exact bytes. Refresh recency only.
		s.ll.MoveToFront(el)
		return nil
	}
	if err := s.write(fp, header, key, body); err != nil {
		s.writeFails++
		return err
	}
	s.writes++
	s.items[fp] = s.ll.PushFront(&entry{fp: fp, size: charge})
	s.bytes += charge
	s.evict()
	return nil
}

// write performs the atomic temp-write-then-rename (callers hold the
// lock).
//
//vltlint:heldby mu
func (s *Store) write(fp, header, key string, body []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	for _, chunk := range [][]byte{[]byte(header), []byte(key), {'\n'}, body} {
		if _, err := f.Write(chunk); err != nil {
			return cleanup(err)
		}
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, fp+suffix)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// evict removes least-recently-used entries (index and file) until the
// store fits its budget (callers hold the lock).
//
//vltlint:heldby mu
func (s *Store) evict() {
	for s.bytes > s.budget {
		last := s.ll.Back()
		if last == nil {
			return
		}
		e := last.Value.(*entry)
		os.Remove(filepath.Join(s.dir, e.fp+suffix))
		s.removeLocked(last)
		s.evictions++
	}
}

// removeLocked drops one element from the index and the byte
// accounting (callers hold the lock).
//
//vltlint:heldby mu
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.items, e.fp)
	s.bytes -= e.size
}

// quarantineLocked renames a failed entry to *.corrupt so it is never
// read again but survives for post-mortem (callers hold the lock).
//
//vltlint:heldby mu
func (s *Store) quarantineLocked(fp string) {
	path := filepath.Join(s.dir, fp+suffix)
	if err := os.Rename(path, path[:len(path)-len(suffix)]+suffixCorrupt); err != nil {
		os.Remove(path)
	}
}

// Register exposes the store's counters and occupancy under the given
// registry scope (conventionally "serve.store").
func (s *Store) Register(r *stats.Registry) { s.register(r) }

// register exposes every counter; the closures take the store lock, so
// a snapshot is race-free against concurrent traffic.
func (s *Store) register(r *stats.Registry) {
	locked := func(f func() uint64) func() uint64 {
		return func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return f()
		}
	}
	r.CounterFn("hits", locked(func() uint64 { return s.hits }))
	r.CounterFn("misses", locked(func() uint64 { return s.misses }))
	r.CounterFn("writes", locked(func() uint64 { return s.writes }))
	r.CounterFn("write_fails", locked(func() uint64 { return s.writeFails }))
	r.CounterFn("evictions", locked(func() uint64 { return s.evictions }))
	r.CounterFn("corrupt", locked(func() uint64 { return s.corrupt }))
	r.CounterFn("entries", locked(func() uint64 { return uint64(s.ll.Len()) }))
	r.CounterFn("bytes", locked(func() uint64 { return uint64(s.bytes) }))
	r.CounterFn("budget_bytes", func() uint64 { return uint64(s.budget) })
}
