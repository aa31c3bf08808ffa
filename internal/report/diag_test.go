package report

import (
	"errors"
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/guard"
	"vlt/internal/isa"
)

// TestDiagnoseStall: a run the forward-progress watchdog aborts renders
// as a headline plus the machine-state dump, never as a raw stack.
func TestDiagnoseStall(t *testing.T) {
	b := asm.NewBuilder("stall")
	b.MovI(isa.R(1), 1)
	b.Halt()
	cfg := core.Base(8)
	cfg.StallLimit = 2 // trips during the cold start's first I-cache fill
	m, err := core.NewMachine(cfg, b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var stall *guard.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *guard.StallError, got %T: %v", err, err)
	}
	got := Diagnose("vltrun", err)
	for _, want := range []string{"vltrun: simulation aborted", "guard:", "machine state at failure", "thread 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
}
