package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vlt/internal/stats"
)

func open(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryPath returns the on-disk path an entry for key lives at.
func entryPath(dir, key string) string {
	return filepath.Join(dir, Fingerprint(key)+suffix)
}

func TestPutGetRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	body := []byte(`{"cycles":123}` + "\n")
	if err := s.Put("cell-a", body); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("cell-a")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want the stored body", got, ok)
	}
	if _, ok := s.Get("cell-b"); ok {
		t.Fatal("Get of an unknown key succeeded")
	}
	if s.hits != 1 || s.misses != 1 || s.writes != 1 {
		t.Fatalf("counters hits=%d misses=%d writes=%d, want 1/1/1", s.hits, s.misses, s.writes)
	}
	if s.Len() != 1 || s.Bytes() <= 0 {
		t.Fatalf("Len=%d Bytes=%d, want 1 entry with a positive charge", s.Len(), s.Bytes())
	}
	// A duplicate Put of a content-addressed key is a recency refresh,
	// not a second write.
	if err := s.Put("cell-a", body); err != nil {
		t.Fatal(err)
	}
	if s.writes != 1 {
		t.Fatalf("writes = %d after duplicate Put, want 1", s.writes)
	}
}

// TestReopenServes proves durability: a fresh Store over the same
// directory serves the previous process's entries byte-identically.
func TestReopenServes(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	body := []byte(strings.Repeat("x", 4096))
	if err := s.Put("cell-a", body); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 1<<20)
	got, ok := s2.Get("cell-a")
	if !ok || !bytes.Equal(got, body) {
		t.Fatal("reopened store did not serve the persisted entry")
	}
	if s2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", s2.Len())
	}
}

// TestCorruptQuarantine proves the corruption model: a flipped body
// byte makes the entry a miss (never an error), quarantines the file as
// *.corrupt, and drops it from the index.
func TestCorruptQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	if err := s.Put("cell-a", []byte(`{"cycles":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, "cell-a")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40 // flip one body bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("cell-a"); ok {
		t.Fatal("Get served a corrupt entry")
	}
	if s.corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", s.corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still visible under its live name")
	}
	if _, err := os.Stat(strings.TrimSuffix(path, suffix) + suffixCorrupt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The index no longer charges for it, and a fresh Put re-stores.
	if s.Len() != 0 {
		t.Fatalf("Len = %d after quarantine, want 0", s.Len())
	}
	if err := s.Put("cell-a", []byte(`{"cycles":1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("cell-a"); !ok {
		t.Fatal("re-Put after quarantine did not serve")
	}
}

// TestNegativeHeaderLengthQuarantined proves a header whose lengths add
// up but go negative is corruption, not a slice panic under the lock.
func TestNegativeHeaderLengthQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	body := []byte(`{"cycles":1}` + "\n")
	if err := s.Put("cell-a", body); err != nil {
		t.Fatal(err)
	}
	path := entryPath(dir, "cell-a")
	rest := "cell-a\n" + string(body)
	raw := fmt.Sprintf("%s %d %08x %d %d\n%s", magic, FormatVersion, crc32.ChecksumIEEE(body), -1, len(rest), rest)
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("cell-a"); ok {
		t.Fatal("Get served an entry with a negative key length")
	}
	if s.corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", s.corrupt)
	}
}

// TestCrashConsistency simulates a process killed mid-write: a leftover
// temp file and a truncated visible entry. The store must reopen clean,
// sweep the temp file, and quarantine (not crash on) the partial entry.
func TestCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 1<<20)
	if err := s.Put("cell-ok", []byte("intact\n")); err != nil {
		t.Fatal(err)
	}

	// A write that died before rename: only a temp file exists.
	tmp := filepath.Join(dir, ".tmp-123456")
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn visible entry: valid header promising more bytes than the
	// file holds (as if the file system lost the tail).
	torn := entryPath(dir, "cell-torn")
	header := fmt.Sprintf("%s %d %x %d %d\n", magic, FormatVersion, uint32(0xdeadbeef), len("cell-torn"), 4096)
	if err := os.WriteFile(torn, []byte(header+"cell-torn\nshort"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 1<<20)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("reopen did not sweep the crashed temp file")
	}
	if got, ok := s2.Get("cell-ok"); !ok || string(got) != "intact\n" {
		t.Fatal("intact entry lost across the crash")
	}
	if _, ok := s2.Get("cell-torn"); ok {
		t.Fatal("torn entry served")
	}
	if s2.corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1 (the torn entry)", s2.corrupt)
	}
	if _, err := os.Stat(strings.TrimSuffix(torn, suffix) + suffixCorrupt); err != nil {
		t.Fatalf("torn entry not quarantined: %v", err)
	}
	_ = s
}

// TestStaleVersionSwept proves the versioned-fingerprint invalidation
// contract's disk half: entries written at another format version are
// unreachable (their fingerprints differ) and Open deletes them.
func TestStaleVersionSwept(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, fingerprintAt(FormatVersion+1, "cell-old")+suffix)
	header := fmt.Sprintf("%s %d %x %d %d\n", magic, FormatVersion+1, uint32(0), len("cell-old"), 0)
	if err := os.WriteFile(stale, []byte(header+"cell-old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 1<<20)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale-version entry survived reopen")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if s.evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (the stale sweep)", s.evictions)
	}
}

// TestBudgetJanitor proves the byte-budget eviction mirrors the memory
// LRU: least-recently-used entries (and their files) go first, and the
// accounting converges under the budget.
func TestBudgetJanitor(t *testing.T) {
	dir := t.TempDir()
	body := []byte(strings.Repeat("x", 512))
	probe := open(t, dir, 1<<20)
	if err := probe.Put("size-probe", body); err != nil {
		t.Fatal(err)
	}
	per := probe.Bytes()
	os.Remove(entryPath(dir, "size-probe"))

	s := open(t, t.TempDir(), 2*per)
	for _, k := range []string{"a", "b"} {
		if err := s.Put(k, body); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("a"); !ok { // touch a: b is now LRU
		t.Fatal("a missing under budget")
	}
	if err := s.Put("c", body); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b survived past the budget")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently-used a was evicted instead of b")
	}
	if s.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.evictions)
	}
	if _, err := os.Stat(entryPath(s.Dir(), "b")); !os.IsNotExist(err) {
		t.Fatal("evicted entry's file still on disk")
	}
	if s.Bytes() > 2*per {
		t.Fatalf("Bytes = %d over the %d budget", s.Bytes(), 2*per)
	}

	// An entry bigger than the whole budget is refused outright.
	tiny := open(t, t.TempDir(), 64)
	if err := tiny.Put("huge", body); err == nil {
		t.Fatal("oversized Put succeeded")
	}
	if tiny.Len() != 0 {
		t.Fatal("oversized entry was indexed")
	}
}

// TestReopenEnforcesBudget proves Open itself runs the janitor: a store
// reopened with a smaller budget sheds its oldest entries immediately,
// oldest-by-mtime first.
func TestReopenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	body := []byte(strings.Repeat("x", 512))
	s := open(t, dir, 1<<20)
	for _, k := range []string{"old", "new"} {
		if err := s.Put(k, body); err != nil {
			t.Fatal(err)
		}
	}
	per := s.Bytes() / 2
	// Make the recency order unambiguous for the mtime-based rebuild.
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(entryPath(dir, "old"), past, past); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, per+per/2) // room for one entry only
	if _, ok := s2.Get("new"); !ok {
		t.Fatal("newest entry evicted by the reopen janitor")
	}
	if _, ok := s2.Get("old"); ok {
		t.Fatal("oldest entry survived a shrunken budget")
	}
}

// TestVersionedETags pins the fingerprint/ETag derivation: stable
// within a version, distinct across versions, strong-form quoted.
func TestVersionedETags(t *testing.T) {
	if ETag("k") != ETagAt(FormatVersion, "k") {
		t.Fatal("ETag does not match ETagAt(FormatVersion)")
	}
	if ETagAt(1, "k") == ETagAt(2, "k") {
		t.Fatal("fingerprints identical across format versions")
	}
	if Fingerprint("k1") == Fingerprint("k2") {
		t.Fatal("distinct keys share a fingerprint")
	}
	tag := ETag("k")
	if !strings.HasPrefix(tag, `"`) || !strings.HasSuffix(tag, `"`) || strings.Contains(tag, "W/") {
		t.Fatalf("ETag %q is not a strong quoted tag", tag)
	}
}

// TestRegister proves every counter lands in a registry snapshot.
func TestRegister(t *testing.T) {
	s := open(t, t.TempDir(), 1<<20)
	reg := stats.New()
	s.Register(reg.Scope("store"))
	if err := s.Put("cell-a", []byte("body\n")); err != nil {
		t.Fatal(err)
	}
	s.Get("cell-a")
	s.Get("cell-b")
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"store.hits":    1,
		"store.misses":  1,
		"store.writes":  1,
		"store.entries": 1,
	} {
		if got := snap.Uint(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"store.write_fails", "store.evictions", "store.corrupt",
		"store.bytes", "store.budget_bytes"} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("%s not registered", name)
		}
	}
}

// TestParseHeader pins the header grammar: exactly Put's five fields,
// single-spaced, the CRC in hex of either case. A sixth field used to
// pass (fmt.Sscanf ignored a tail); it is now a malformed header, so
// such a file is quarantined.
func TestParseHeader(t *testing.T) {
	put := fmt.Sprintf("%s %d %08x %d %d", magic, FormatVersion, crc32.ChecksumIEEE([]byte("body\n")), len("cell-a"), 5)
	for _, c := range []struct {
		line string
		want header
		ok   bool
	}{
		{put, header{version: FormatVersion, crc: crc32.ChecksumIEEE([]byte("body\n")), keyLen: 6, bodyLen: 5}, true},
		{magic + " 8 00000000 0 0", header{version: 8}, true},
		{magic + " 8 0 3 4", header{version: 8, keyLen: 3, bodyLen: 4}, true},
		{magic + " 8 DEADBEEF 3 4", header{version: 8, crc: 0xdeadbeef, keyLen: 3, bodyLen: 4}, true},
		{magic + " 8 DeadBeef 3 4", header{version: 8, crc: 0xdeadbeef, keyLen: 3, bodyLen: 4}, true},
		{"vltstorf 8 deadbeef 3 4", header{}, false},
		{"", header{}, false},
		{magic + " 8 deadbeef 3", header{}, false},
		{magic + " 8 deadbeef 3 4 5", header{}, false},
		{magic + " 8 deadbeef 3 4 ", header{}, false},
		{magic + "  8 deadbeef 3 4", header{}, false},
		{magic + " 8 deadbeef -1 4", header{}, false},
		{magic + " 8 deadbeef 3 -4", header{}, false},
		{magic + " 8 deadbeef 99999999999999999999 4", header{}, false},
		{magic + " 8 deadbeef 3 99999999999999999999", header{}, false},
		{magic + " 99999999999999999999 deadbeef 3 4", header{}, false},
		{magic + " 8 deadbeeg 3 4", header{}, false},
		{magic + " 8 1deadbeef 3 4", header{}, false},
		{magic + " 8 -1 3 4", header{}, false},
		{magic + " v8 deadbeef 3 4", header{}, false},
	} {
		got, ok := parseHeader(c.line)
		if ok != c.ok || got != c.want {
			t.Errorf("parseHeader(%q) = %+v, %t; want %+v, %t", c.line, got, ok, c.want, c.ok)
		}
	}
}

// TestTrailingHeaderFieldQuarantined: a header with a sixth field is
// corrupt at Open, not an entry served with the tail ignored.
func TestTrailingHeaderFieldQuarantined(t *testing.T) {
	dir := t.TempDir()
	body := []byte("intact\n")
	raw := fmt.Sprintf("%s %d %08x %d %d extra\ncell-a\n%s", magic, FormatVersion, crc32.ChecksumIEEE(body), len("cell-a"), len(body), body)
	if err := os.WriteFile(entryPath(dir, "cell-a"), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 1<<20)
	if _, ok := s.Get("cell-a"); ok {
		t.Fatal("Get served an entry whose header has a sixth field")
	}
	if s.corrupt != 1 || s.Len() != 0 {
		t.Fatalf("corrupt = %d, Len = %d; want 1, 0", s.corrupt, s.Len())
	}
}
