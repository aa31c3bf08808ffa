package core

import (
	"reflect"
	"strings"
	"testing"

	"vlt/internal/lane"
	"vlt/internal/vcl"
	"vlt/internal/workloads"
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

// TestZeroCountIsAnError pins that a zero size or count in a component
// the machine builds is refused by name, never replaced by a default:
// each case zeroes one field of a complete preset. Latencies and
// penalties may be 0, and a component the machine does not build (the
// VCL of a scalar-only machine) is not checked.
func TestZeroCountIsAnError(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
		zero  func(*Config)
	}{
		{"L2.SizeBytes", Base(8), func(c *Config) { c.L2.SizeBytes = 0 }},
		{"L2.Assoc", Base(8), func(c *Config) { c.L2.Assoc = 0 }},
		{"L2.Banks", Base(8), func(c *Config) { c.L2.Banks = 0 }},
		{"L2.BankPorts", V4CMT(), func(c *Config) { c.L2.BankPorts = 0 }},
		{"VCL.IssueWidth", Base(8), func(c *Config) { c.VCL.IssueWidth = 0 }},
		{"VCL.VIQSize", V2CMP(), func(c *Config) { c.VCL.VIQSize = 0 }},
		{"VCL.WindowSize", Base(8), func(c *Config) { c.VCL.WindowSize = 0 }},
		{"VCL.PhysRegs", Base(8), func(c *Config) { c.VCL.PhysRegs = 0 }},
		{"LaneCore.Width", VLTScalar(8), func(c *Config) { c.LaneCore.Width = 0 }},
		{"LaneCore.RetireQueue", VLTScalar(8), func(c *Config) { c.LaneCore.RetireQueue = 0 }},
		{"LaneCore.ICache.SizeBytes", VLTScalar(8), func(c *Config) { c.LaneCore.ICache.SizeBytes = 0 }},
	} {
		c.zero(&c.cfg)
		if _, err := NewMachine(c.cfg, tinyVectorProgram()); err == nil {
			t.Errorf("%s: %s = 0 built a machine, want an error", c.cfg.Name, c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: %s = 0: error %q does not name the field", c.cfg.Name, c.field, err)
		}
	}

	for _, c := range []struct {
		what string
		cfg  Config
		zero func(*Config)
	}{
		{"zero latencies", Base(8), func(c *Config) { c.L2.HitLat, c.L2.MissLat = 0, 0 }},
		{"zero lane penalties", VLTScalar(8), func(c *Config) { c.LaneCore.MispredictPenalty, c.LaneCore.ICacheServiceLat = 0, 0 }},
		{"an unbuilt VCL", CMT(4), func(c *Config) { c.VCL = vcl.Config{} }},
		{"an unbuilt lane core", Base(8), func(c *Config) { c.LaneCore = lane.Config{} }},
	} {
		c.zero(&c.cfg)
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s with %s: %v, want it valid", c.cfg.Name, c.what, err)
		}
	}
}

// TestDecoupleWindowSetOnPresetTakesEffect pins that an ablation is a
// plain mutator on a preset: a lane decouple window set directly on
// VLT-scalar reaches the lane cores, so the blocking pipeline (window 1)
// runs radix in a different number of cycles than the default window.
func TestDecoupleWindowSetOnPresetTakesEffect(t *testing.T) {
	w, err := workloads.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.Build(workloads.Params{Threads: 8, ScalarOnly: true})
	def, _ := runToEnd(t, VLTScalar(8), prog)
	blocking := VLTScalar(8)
	blocking.LaneCore.DecoupleWindow = 1
	got, _ := runToEnd(t, blocking, prog)
	if got.Cycles == def.Cycles {
		t.Errorf("decouple window 1 ran radix in %d cycles, the same as the default window %d",
			got.Cycles, lane.DefaultConfig().DecoupleWindow)
	}
}

// TestPartitionRuleAgrees: Config.Validate, NewMachine and
// PartitionChoices all follow vcl.CheckPartitions, for every preset with
// a vector unit at every lane count 1–16 and every thread count its SMT
// slots can run. Validate and NewMachine refuse exactly the initial
// partitionings the rule refuses, naming its reason, and a machine's
// choices are the counts up to its thread count that the rule accepts.
func TestPartitionRuleAgrees(t *testing.T) {
	prog := tinyVectorProgram()
	for _, name := range MachineNames() {
		for lanes := 1; lanes <= 16; lanes++ {
			for threads := 0; threads <= 8; threads++ {
				cfg, err := ByName(name, lanes, threads)
				if err != nil {
					t.Fatal(err)
				}
				slots := 0
				for _, su := range cfg.SUs {
					slots += su.Contexts
				}
				if cfg.Lanes == 0 || cfg.LaneScalarMode || cfg.NumThreads > slots {
					continue
				}
				at := func(n int) error { return vcl.CheckPartitions(cfg.VCL, cfg.Lanes, n) }
				rule := at(cfg.InitialPartitions)
				m, merr := NewMachine(cfg, prog)
				for what, err := range map[string]error{"Validate": cfg.Validate(), "NewMachine": merr} {
					if (err == nil) != (rule == nil) || (rule != nil && !strings.Contains(err.Error(), rule.Error())) {
						t.Errorf("%s, %d lanes, %d threads: %s: %v, want the rule's %v", name, lanes, threads, what, err, rule)
					}
				}
				if m == nil {
					continue
				}
				var want []int
				for n := 1; n <= cfg.NumThreads; n++ {
					if at(n) == nil {
						want = append(want, n)
					}
				}
				if got := m.PartitionChoices(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %d lanes, %d threads: PartitionChoices() = %v, want %v", name, lanes, threads, got, want)
				}
				m.Release()
			}
		}
	}
}
