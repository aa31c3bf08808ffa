package pipe

import (
	"slices"
	"testing"
)

func uops(n int) []*Uop {
	us := make([]*Uop, n)
	for i := range us {
		us[i] = &Uop{Thread: i}
	}
	return us
}

// ringOrder returns the queued uops' Thread tags front to back.
func ringOrder(r *Ring) []int {
	var out []int
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.At(i).Thread)
	}
	return out
}

func TestRingFillAndDrain(t *testing.T) {
	us := uops(4)
	r := NewRing(4)
	if r.Front() != nil || r.Len() != 0 {
		t.Fatal("new ring not empty")
	}
	for _, u := range us {
		r.Push(u)
	}
	if got := ringOrder(&r); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("full ring order %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push into a full ring did not panic")
			}
		}()
		r.Push(&Uop{})
	}()
	for i, u := range us {
		if r.Front() != u {
			t.Fatalf("front before pop %d is not uop %d", i, i)
		}
		if got := r.Pop(); got != u {
			t.Fatalf("pop %d returned uop %d", i, got.Thread)
		}
	}
	if r.Len() != 0 || r.Front() != nil {
		t.Fatal("drained ring not empty")
	}
	for i, slot := range r.buf {
		if slot != nil {
			t.Errorf("slot %d still pins a popped uop", i)
		}
	}
}

func TestRingWrapsAround(t *testing.T) {
	us := uops(7)
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
	if got := ringOrder(&r); !slices.Equal(got, []int{2, 3, 4, 5}) {
		t.Fatalf("wrapped order %v, want [2 3 4 5]", got)
	}
	r.Pop()
	r.Push(us[6])
	if got := ringOrder(&r); !slices.Equal(got, []int{3, 4, 5, 6}) {
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

func TestRingCloneRebasesAtZero(t *testing.T) {
	us := uops(6)
	r := NewRing(4)
	for _, u := range us[:4] {
		r.Push(u)
	}
	r.Pop()
	r.Pop()
	r.Push(us[4])
	r.Push(us[5]) // window [2..5] wraps: head at 2

	cl := NewCloner()
	c := r.Clone(cl)
	if c.head != 0 || c.Len() != 4 || len(c.buf) != 4 {
		t.Fatalf("clone head=%d len=%d cap=%d, want 0/4/4", c.head, c.Len(), len(c.buf))
	}
	if got := ringOrder(&c); !slices.Equal(got, []int{2, 3, 4, 5}) {
		t.Fatalf("clone order %v, want [2 3 4 5]", got)
	}
	for i := 0; i < c.Len(); i++ {
		if c.At(i) == r.At(i) {
			t.Fatalf("clone entry %d aliases the parent's uop", i)
		}
		if c.At(i) != cl.Uop(r.At(i)) {
			t.Fatalf("clone entry %d is not the Cloner's copy", i)
		}
	}
	// The two rings evolve independently.
	c.Pop()
	if r.Len() != 4 || r.Front() != us[2] {
		t.Fatal("popping the clone changed the parent")
	}
}
