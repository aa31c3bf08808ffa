package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestByName pins the name table's resolution against the constructors it
// wraps: lane and thread overrides reach exactly the machines that have
// them, and every vector machine starts with one partition per thread.
func TestByName(t *testing.T) {
	with := func(cfg Config, lanes, threads, partitions int) Config {
		cfg.Lanes, cfg.NumThreads, cfg.InitialPartitions = lanes, threads, partitions
		return cfg
	}
	cases := []struct {
		name           string
		lanes, threads int
		want           Config
	}{
		{"base", 0, 0, Base(8)},
		{"base", 4, 2, with(Base(4), 4, 2, 2)},
		{"V2-SMT", 0, 0, V2SMT()},
		{"V2-CMP", 0, 1, with(V2CMP(), 8, 1, 1)},
		{"V2-CMP-h", 0, 0, V2CMPh()},
		{"V4-SMT", 0, 0, V4SMT()},
		{"V4-CMT", 16, 0, with(V4CMT(), 16, 4, 4)},
		{"V4-CMP", 0, 2, with(V4CMP(), 8, 2, 2)},
		{"V4-CMP-h", 0, 0, V4CMPh()},
		{"CMT", 0, 0, CMT(4)},
		{"CMT", 16, 2, CMT(2)},
		{"VLT-scalar", 0, 0, VLTScalar(8)},
		{"VLT-scalar", 4, 3, VLTScalar(3)},
	}
	for _, c := range cases {
		got, err := ByName(c.name, c.lanes, c.threads)
		if err != nil {
			t.Fatalf("ByName(%q, %d, %d): %v", c.name, c.lanes, c.threads, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ByName(%q, %d, %d) = %+v\nwant %+v", c.name, c.lanes, c.threads, got, c.want)
		}
	}
	if len(MachineNames()) != 10 {
		t.Errorf("MachineNames() = %v, want the paper's 10 machines", MachineNames())
	}

	_, err := ByName("warp9", 0, 0)
	if err == nil {
		t.Fatal("unknown machine resolved")
	}
	for _, name := range MachineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-machine error %q does not list %q", err, name)
		}
	}

	// A negative count never builds a machine, even where the machine
	// ignores lanes (CMT), and the error names the bad value.
	for _, c := range []struct {
		name           string
		lanes, threads int
		want           string
	}{
		{"base", -2, 0, "lane count -2"},
		{"CMT", -1, 0, "lane count -1"},
		{"V4-CMT", 0, -1, "thread count -1"},
		{"VLT-scalar", 4, -3, "thread count -3"},
	} {
		cfg, err := ByName(c.name, c.lanes, c.threads)
		if err == nil {
			t.Errorf("ByName(%q, %d, %d) = %s, want an error", c.name, c.lanes, c.threads, cfg.Name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("ByName(%q, %d, %d) error %q does not name %q", c.name, c.lanes, c.threads, err, c.want)
		}
	}
}
