package runner

import (
	"errors"
	"strings"
	"testing"
)

func TestGuardConvertsPanic(t *testing.T) {
	_, err := Guard("cell-7", func() (int, error) {
		panic("lane index out of range")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Key != "cell-7" || pe.Value != "lane index out of range" {
		t.Errorf("PanicError = {%q %v}", pe.Key, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "guard_test.go") {
		t.Error("stack does not reach the panicking frame")
	}
	if !strings.Contains(pe.Error(), "cell-7") {
		t.Errorf("Error() = %q misses the key", pe.Error())
	}
}

func TestGuardPassesThroughResults(t *testing.T) {
	v, err := Guard("ok", func() (int, error) { return 42, nil })
	if v != 42 || err != nil {
		t.Errorf("Guard = %d, %v", v, err)
	}
	wantErr := errors.New("plain failure")
	_, err = Guard("failing", func() (int, error) { return 0, wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("plain error not passed through: %v", err)
	}
}

func TestStartIsolatesPanickingJob(t *testing.T) {
	slots := NewSlots(1)
	bad := Start(slots, "bad", func() (int, error) { panic("boom") })
	good := Start(slots, "good", func() (int, error) { return 1, nil })

	if v, err := good.Wait(); v != 1 || err != nil {
		t.Errorf("sibling job affected by panic: %d, %v", v, err)
	}
	_, err := bad.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Key != "bad" {
		t.Errorf("panic key %q, want bad", pe.Key)
	}
	// The panicking job released its slot: the one slot still runs work.
	if v, err := Start(slots, "after", func() (int, error) { return 2, nil }).Wait(); v != 2 || err != nil {
		t.Errorf("slot lost to a panic: %d, %v", v, err)
	}
}
