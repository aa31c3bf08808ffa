package pipe

import (
	"slices"
	"testing"
)

// uops returns n handles, uop i's Thread being i.
func uops(a *Arena, n int) []UopID {
	ids := make([]UopID, n)
	for i := range ids {
		ids[i], _ = a.New(i, 0)
	}
	return ids
}

// ringOrder returns the queued uops' Thread tags front to back.
func ringOrder(a *Arena, r *Ring) []int {
	var out []int
	for i := 0; i < r.Len(); i++ {
		out = append(out, a.At(r.At(i)).Thread)
	}
	return out
}

func TestRingFillAndDrain(t *testing.T) {
	var a Arena
	us := uops(&a, 4)
	r := NewRing(4)
	if r.Front() != 0 || r.Len() != 0 {
		t.Fatal("new ring not empty")
	}
	for _, u := range us {
		r.Push(u)
	}
	if got := ringOrder(&a, &r); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("full ring order %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push into a full ring did not panic")
			}
		}()
		r.Push(us[0])
	}()
	for i, u := range us {
		if r.Front() != u {
			t.Fatalf("front before pop %d is not uop %d", i, i)
		}
		if got := r.Pop(); got != u {
			t.Fatalf("pop %d returned uop %d", i, a.At(got).Thread)
		}
	}
	if r.Len() != 0 || r.Front() != 0 {
		t.Fatal("drained ring not empty")
	}
	for i, slot := range r.buf {
		if slot != 0 {
			t.Errorf("slot %d still holds a popped uop", i)
		}
	}
}

func TestRingWrapsAround(t *testing.T) {
	var a Arena
	us := uops(&a, 7)
	r := NewRing(4)
	// Push 3, pop 2, push 3 more: the live window [2..5] crosses the end
	// of the backing array.
	for _, u := range us[:3] {
		r.Push(u)
	}
	r.Pop()
	r.Pop()
	for _, u := range us[3:6] {
		r.Push(u)
	}
	if r.head == 0 {
		t.Fatal("test setup: window did not move off offset 0")
	}
	if got := ringOrder(&a, &r); !slices.Equal(got, []int{2, 3, 4, 5}) {
		t.Fatalf("wrapped order %v, want [2 3 4 5]", got)
	}
	r.Pop()
	r.Push(us[6])
	if got := ringOrder(&a, &r); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Fatalf("order after second wrap %v, want [3 4 5 6]", got)
	}
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) on a 4-entry ring did not panic", i)
				}
			}()
			r.At(i)
		}()
	}
}

// TestRingCloneRebasesAtZero pins the copy model on a ring whose window
// wraps: the clone keeps order, length, head and handles, and popping
// or pushing it leaves the parent unchanged. A copy keeps the head
// where it was; nothing rebases it to offset 0.
func TestRingCloneRebasesAtZero(t *testing.T) {
	var a Arena
	us := uops(&a, 7)
	r := NewRing(4)
	for _, u := range us[:4] {
		r.Push(u)
	}
	r.Pop()
	r.Pop()
	r.Push(us[4])
	r.Push(us[5]) // window [2..5] wraps: head at 2

	c := r.Clone()
	if c.head != r.head || c.Len() != 4 || len(c.buf) != 4 {
		t.Fatalf("clone head=%d len=%d cap=%d, want %d/4/4", c.head, c.Len(), len(c.buf), r.head)
	}
	for i := 0; i < c.Len(); i++ {
		if c.At(i) != r.At(i) {
			t.Fatalf("clone entry %d is uop %d, parent's is %d", i, c.At(i), r.At(i))
		}
	}
	// The two rings evolve independently.
	c.Pop()
	c.Push(us[6])
	if got := ringOrder(&a, &r); !slices.Equal(got, []int{2, 3, 4, 5}) || r.Front() != us[2] {
		t.Fatalf("parent order %v after the clone moved, want [2 3 4 5]", got)
	}
	if got := ringOrder(&a, &c); !slices.Equal(got, []int{3, 4, 5, 6}) {
		t.Fatalf("clone order %v, want [3 4 5 6]", got)
	}
}
