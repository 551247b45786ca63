package sim

import (
	"testing"
	"time"
)

func TestAtPooledRunsInOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.AtPooled(3*time.Second, func() { got = append(got, 3) })
	s.AtPooled(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
}

// TestPooledAndHandleEventsCoexist: handle-less events must not
// disturb Cancel on handle-carrying events scheduled around them.
func TestPooledAndHandleEventsCoexist(t *testing.T) {
	s := NewScheduler()
	var got []string
	ev := s.At(2*time.Second, func() { got = append(got, "cancelled") })
	s.AtPooled(time.Second, func() {
		got = append(got, "pooled")
		s.Cancel(ev)
	})
	s.At(3*time.Second, func() { got = append(got, "kept") })
	s.Run()
	if len(got) != 2 || got[0] != "pooled" || got[1] != "kept" {
		t.Fatalf("got %v, want [pooled kept]", got)
	}
}

func TestSeedForCellDeterministic(t *testing.T) {
	a := SeedForCell(42, 1, 2, 3)
	b := SeedForCell(42, 1, 2, 3)
	if a != b {
		t.Fatalf("SeedForCell not deterministic: %d vs %d", a, b)
	}
}

// TestSeedForCellSeparatesCoordinates: neighbouring grid cells, and
// coordinate lists that concatenate to the same digits, must land on
// distinct seeds.
func TestSeedForCellSeparatesCoordinates(t *testing.T) {
	seen := map[int64][]int{}
	add := func(seed int64, coords ...int) {
		if prev, ok := seen[seed]; ok {
			t.Fatalf("seed collision: coords %v and %v both map to %d", prev, coords, seed)
		}
		seen[seed] = coords
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			add(SeedForCell(7, i, j), i, j)
		}
	}
	if SeedForCell(7, 12) == SeedForCell(7, 1, 2) {
		t.Fatal("coordinate boundaries are not separated")
	}
	if SeedForCell(7, 1) == SeedForCell(8, 1) {
		t.Fatal("base seed ignored")
	}
}
