package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestDistinctKeysAllExecute(t *testing.T) {
	slots := NewSlots(3)
	var tasks []*Task[int]
	for i := 0; i < 50; i++ {
		i := i
		tasks = append(tasks, Start(slots, fmt.Sprint(i), func() (int, error) { return i * i, nil }))
	}
	for i, task := range tasks {
		v, err := task.Wait()
		if err != nil || v != i*i {
			t.Fatalf("task %d: Wait = %d, %v; want %d, nil", i, v, err, i*i)
		}
	}
}

// TestConcurrencyBound: however many jobs are started, Slots never runs
// more of them at once than its width.
func TestConcurrencyBound(t *testing.T) {
	const width = 3
	slots := NewSlots(width)
	var inFlight, maxSeen atomic.Int32
	var tasks []*Task[struct{}]
	for i := 0; i < 40; i++ {
		tasks = append(tasks, Start(slots, fmt.Sprint(i), func() (struct{}, error) {
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond) // let jobs overlap
			inFlight.Add(-1)
			return struct{}{}, nil
		}))
	}
	for _, task := range tasks {
		task.Wait()
	}
	if m := maxSeen.Load(); m > width {
		t.Errorf("observed %d concurrent jobs, bound is %d", m, width)
	} else if m < 2 {
		t.Errorf("observed at most %d concurrent job; the slots serialized", m)
	}
}

// TestGoHoldsNoSlot: a Go job runs while every slot is taken, so a
// coordinator that waits on slot-holding work cannot deadlock it. Done
// tells the held job apart from the finished one without blocking.
func TestGoHoldsNoSlot(t *testing.T) {
	slots := NewSlots(1)
	started, release := make(chan struct{}), make(chan struct{})
	held := Start(slots, "holder", func() (int, error) { close(started); <-release; return 1, nil })
	<-started
	if v, err := Go("free", func() (int, error) { return 2, nil }).Wait(); v != 2 || err != nil {
		t.Fatalf("Go with every slot held: %d, %v; want 2, nil", v, err)
	}
	if held.Done() {
		t.Fatal("held job reports Done before it is released")
	}
	close(release)
	held.Wait()
	if !held.Done() {
		t.Fatal("finished job does not report Done")
	}
}

// TestErrorPropagatesToAllWaiters: every caller coalesced onto a failing
// execution sees its error, and the duplicate never runs.
func TestErrorPropagatesToAllWaiters(t *testing.T) {
	f := NewFlight[string, int](2)
	boom := errors.New("boom")
	release := make(chan struct{})
	a, _, _ := f.TrySubmit("bad", func() (int, error) { <-release; return 0, boom })
	b, _, _ := f.TrySubmit("bad", func() (int, error) { t.Error("duplicate ran"); return 0, nil })
	close(release)
	for _, task := range []*Task[int]{a, b} {
		if _, err := task.Wait(); !errors.Is(err, boom) {
			t.Errorf("Wait error = %v, want boom", err)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	for _, n := range []int{0, -3} {
		if w := NewSlots(n).Width(); w < 1 {
			t.Errorf("NewSlots(%d).Width() = %d, want >= 1", n, w)
		}
	}
}

// TestStructKeys: a Flight keyed by a struct coalesces equal keys and
// separates distinct ones.
func TestStructKeys(t *testing.T) {
	type key struct {
		Workload string
		Machine  string
		Scale    int
	}
	f := NewFlight[key, string](4)
	release := make(chan struct{})
	var calls atomic.Int32
	mk := func(k key) *Task[string] {
		task, _, _ := f.TrySubmit(k, func() (string, error) {
			calls.Add(1)
			<-release
			return fmt.Sprintf("%s/%s/%d", k.Workload, k.Machine, k.Scale), nil
		})
		return task
	}
	a := mk(key{"mxm", "base", 1})
	b := mk(key{"mxm", "base", 1})
	c := mk(key{"mxm", "base", 2})
	close(release)
	for _, task := range []*Task[string]{a, b, c} {
		task.Wait()
	}
	if calls.Load() != 2 {
		t.Errorf("executed %d jobs, want 2 (one duplicate key)", calls.Load())
	}
	if va, _ := a.Wait(); va != "mxm/base/1" {
		t.Errorf("a = %q", va)
	}
}
