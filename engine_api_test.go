package vlt

import (
	"errors"
	"strings"
	"testing"

	"vlt/internal/vet"
)

// TestCellKey pins the key's contract: stable for one cell, shared by
// fully-resolved-equivalent requests, distinct across anything that can
// change the simulated program or the reported result.
func TestCellKey(t *testing.T) {
	base, err := CellKey("mxm", MachineBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := CellKey("mxm", MachineBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base != again {
		t.Fatalf("key not stable: %q vs %q", base, again)
	}

	// Lanes 0 and Lanes 8 both resolve to the 8-lane base machine.
	alias, err := CellKey("mxm", MachineBase, Options{Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if alias != base {
		t.Fatal("resolved-equivalent cells should share a key")
	}

	distinct := []Options{
		{Scale: 2},
		{Lanes: 4},
		{NoLaneReclaim: true},
		{Threads: 2},
	}
	seen := map[string]string{base: "default"}
	for _, opt := range distinct {
		k, err := CellKey("mxm", MachineBase, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("options %+v collide with %s", opt, prev)
		}
		seen[k] = "variant"
	}

	if k, err := CellKey("sage", MachineBase, Options{}); err != nil || k == base {
		t.Fatalf("workload must separate keys (err=%v)", err)
	}
	if _, err := CellKey("no-such-workload", MachineBase, Options{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := CellKey("mxm", Machine("no-such-machine"), Options{}); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

// TestVetCell proves every servable cell is vet clean and that invalid
// requests fail with the resolver's errors, not a build panic.
func TestVetCell(t *testing.T) {
	for _, w := range Workloads() {
		if err := VetCell(w, MachineBase, Options{}); err != nil {
			t.Errorf("VetCell(%s, base) = %v, want nil", w, err)
		}
	}
	if err := VetCell("radix", MachineCMT, Options{}); err != nil {
		t.Errorf("VetCell(radix, CMT) = %v, want nil", err)
	}

	err := VetCell("mxm", MachineCMT, Options{})
	if err == nil || !strings.Contains(err.Error(), "needs a vector unit") {
		t.Errorf("VetCell(mxm, CMT) = %v, want vector-unit error", err)
	}
	if err := VetCell("nope", MachineBase, Options{}); err == nil {
		t.Error("unknown workload accepted")
	}

	// The error type is *vet.Error so the serving layer can classify it;
	// clean kernels never produce one, so just pin the contract shape.
	var ve *vet.Error
	if errors.As(err, &ve) {
		t.Error("resolver error must not be a *vet.Error")
	}
}
