package sim

import "testing"

// TestRingFIFOAcrossGrowth interleaves pushes and pops so the ring
// wraps before each doubling, and checks values leave in push order
// and popped slots are zeroed.
func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r Ring[*int]
	next, want := 0, 0
	for round := 0; round < 6; round++ {
		for i := 0; i < 10<<round; i++ {
			v := next
			r.Push(&v)
			next++
			if **r.Back() != v {
				t.Fatalf("Back = %d after pushing %d", **r.Back(), v)
			}
		}
		for i := 0; i < 5<<round; i++ {
			if got := **r.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			if got := *r.PopFront(); got != want {
				t.Fatalf("PopFront = %d, want %d", got, want)
			}
			want++
		}
		if r.Len() != next-want {
			t.Fatalf("Len = %d, want %d", r.Len(), next-want)
		}
	}
	for r.Len() > 0 {
		if got := *r.PopFront(); got != want {
			t.Fatalf("PopFront = %d, want %d", got, want)
		}
		want++
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d of %d still holds a popped value", i, len(r.buf))
		}
	}
}
