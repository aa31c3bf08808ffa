package guard

import (
	"fmt"
	"strings"
	"testing"
)

type fakeInst string

func (f fakeInst) String() string { return string(f) }

func TestRingKeepsLastK(t *testing.T) {
	r := NewRing(4)
	if r.Len() != 0 {
		t.Fatalf("empty ring Len = %d", r.Len())
	}
	if !strings.Contains(r.String(), "no instructions retired") {
		t.Errorf("empty ring renders %q", r.String())
	}
	for i := 0; i < 10; i++ {
		r.Push(uint64(i), 0, i, fakeInst("inst"))
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Cycle != want {
			t.Errorf("record %d cycle = %d, want %d (oldest-first)", i, rec.Cycle, want)
		}
	}
}

func TestWatchdogFiresAfterLimit(t *testing.T) {
	w := NewWatchdog(10)
	var retired uint64
	for now := uint64(0); now < 10; now++ {
		retired++ // forward progress every cycle
		if w.Observe(now, retired) {
			t.Fatalf("fired at cycle %d despite progress", now)
		}
	}
	// Progress stops after cycle 9; the limit is measured from there.
	for now := uint64(10); now < 19; now++ {
		if w.Observe(now, retired) {
			t.Fatalf("fired at cycle %d, only %d cycles after last progress", now, now-9)
		}
	}
	if !w.Observe(19, retired) {
		t.Error("did not fire 10 cycles after the last retirement")
	}
	if NewWatchdog(0).Limit() != DefaultStallLimit {
		t.Errorf("zero limit = %d, want default %d", NewWatchdog(0).Limit(), DefaultStallLimit)
	}
}

func TestAuditorRunsEveryKAndNamesFailure(t *testing.T) {
	a := NewAuditor()
	calls := 0
	fail := false
	a.Register("always-ok", func() error { return nil })
	a.Register("togglable", func() error {
		calls++
		if fail {
			return errFail
		}
		return nil
	})
	for now := uint64(0); now < 3*AuditEvery; now++ {
		if err := a.Check(now); err != nil {
			t.Fatalf("clean auditor failed at %d: %v", now, err)
		}
	}
	if calls != 3 {
		t.Errorf("check ran %d times over %d cycles, want 3", calls, 3*AuditEvery)
	}
	if a.Passes != 3 {
		t.Errorf("Passes = %d, want 3", a.Passes)
	}
	fail = true
	if err := a.Check(3*AuditEvery + 1); err != nil {
		t.Fatalf("failing invariant checked off the cadence: %v", err)
	}
	err := a.Check(3 * AuditEvery)
	if err == nil {
		t.Fatal("failing invariant not reported")
	}
	if err.Invariant != "togglable" || err.Cycle != 3*AuditEvery {
		t.Errorf("error names %q at cycle %d, want togglable at %d", err.Invariant, err.Cycle, 3*AuditEvery)
	}
	if !strings.Contains(err.Error(), "togglable") || !strings.Contains(err.Error(), fmt.Sprint(3*AuditEvery)) {
		t.Errorf("Error() = %q misses invariant name or cycle", err.Error())
	}
}

var errFail = &InvariantError{Invariant: "inner", Detail: "boom"}

func TestAuditModeResolution(t *testing.T) {
	if !AuditOn.Enabled() {
		t.Error("AuditOn disabled")
	}
	if AuditOff.Enabled() {
		t.Error("AuditOff enabled")
	}
	// Under `go test`, auto resolves on (unless the env overrides).
	t.Setenv("VLT_AUDIT", "")
	if !AuditAuto.Enabled() {
		t.Error("AuditAuto off under go test")
	}
	t.Setenv("VLT_AUDIT", "off")
	if AuditAuto.Enabled() {
		t.Error("VLT_AUDIT=off did not win over the test-binary default")
	}
	t.Setenv("VLT_AUDIT", "on")
	if !AuditAuto.Enabled() {
		t.Error("VLT_AUDIT=on off")
	}
}

func TestStallErrorMessages(t *testing.T) {
	live := &StallError{Config: "base-8L", Kind: "livelock", Cycle: 500, Limit: 100}
	if !strings.Contains(live.Error(), "no instruction retired for 100 cycles") {
		t.Errorf("livelock message: %q", live.Error())
	}
	maxc := &StallError{Config: "base-8L", Kind: "max-cycles", Cycle: 500, Limit: 500}
	if !strings.Contains(maxc.Error(), "exceeded") {
		t.Errorf("max-cycles message must keep the historical 'exceeded': %q", maxc.Error())
	}
	if strings.Contains(live.Error(), "\n") {
		t.Error("Error() must be single-line; the dump is rendered separately")
	}
}
