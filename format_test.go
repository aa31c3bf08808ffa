package vlt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vlt/internal/store"
)

// formatDigests maps each store.FormatVersion to the digest of what is
// served and stored under it (outputsDigest). A change that moves any of
// those outputs must bump store.FormatVersion, so that Open sweeps the
// old store entries and old ETags stop revalidating, and record the new
// version's digest here.
var formatDigests = map[int]string{
	1: "c148612434bb1bcbd03e34f88da5516d9c3471e71745aec16abb8781a2fea1dd",
	2: "469527e4c4e14d4a4c13d363520ac724847c475a2b5f752cabd0c3e6361454dc",
	3: "3e7cf8256f31a7061b6e0a0b5c067603d15ae194f37ac2fba160e9f82f11c28f",
	4: "7f3f3e73e3b1b5e9fd2fe3943bdcb90d46bd1f684ad002e9f2779c6744f3398f",
	5: "d19682bc9775725130984b7570d9a46481f2260eb2b427e379075bf7d18d8b02",
	6: "9187fe8e0c628add44c7f321700e00d7c63a57d0f61c7eb1926dbc05c2acfab0",
	7: "346a8f1584616ff608edbffc63713dca725a238a7d2fd6b913ced0accf7f92a7",
}

// formatOutputs are the committed goldens outputsDigest covers: the
// `vltexp -all` text, the digests of the 89 bodies vltd serves for the
// grid and the experiments, the base/mxm metric snapshot and the `-json`
// document.
var formatOutputs = []string{
	"bench/testdata/expall.golden",
	"bench/testdata/digests.txt",
	"testdata/metrics_base_mxm.golden",
	"testdata/expall_json.golden",
}

// outputsDigest hashes the formatOutputs files and the sorted cell keys
// of every runnable grid cell, keyed as production binaries key them:
// with the auditor off.
func outputsDigest(t *testing.T) string {
	t.Helper()
	t.Setenv("VLT_AUDIT", "off")
	h := sha256.New()
	for _, name := range formatOutputs {
		b, err := os.ReadFile(filepath.FromSlash(name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	var keys []string
	for _, m := range Machines() {
		for _, w := range Workloads() {
			if _, err := resolveCell(w, m, Options{}); err != nil {
				continue // a vector workload on a machine without a vector unit
			}
			key, err := CellKey(w, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	fmt.Fprintf(h, "cell keys %d\n%s\n", len(keys), strings.Join(keys, "\n"))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFormatVersionPinsOutputs ties store.FormatVersion to the outputs it
// versions: the goldens, the served bodies' digests and the cell keys
// must hash to the digest recorded for the current version.
func TestFormatVersionPinsOutputs(t *testing.T) {
	got := outputsDigest(t)
	want, ok := formatDigests[store.FormatVersion]
	if !ok {
		t.Fatalf("no digest recorded for store.FormatVersion %d; record %s", store.FormatVersion, got)
	}
	if got != want {
		t.Fatalf("outputs digest %s, but store.FormatVersion %d recorded %s: the goldens, "+
			"the served body digests or the cell keys moved; bump store.FormatVersion "+
			"and record the new digest under the new version", got, store.FormatVersion, want)
	}
}

// TestCellKeyCoversAudit: the auditor's counters are part of every body,
// so VLT_AUDIT's decision is part of every cell key, and a store shared
// by processes that audit differently never serves one's body to the
// other.
func TestCellKeyCoversAudit(t *testing.T) {
	key := func(audit string) string {
		t.Setenv("VLT_AUDIT", audit)
		k, err := CellKey("mxm", MachineBase, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if on, off := key("on"), key("off"); on == off {
		t.Errorf("VLT_AUDIT=on and off share cell key %s", on)
	}
}
