package roaming

import (
	"math"
	"testing"

	"tlc/internal/core"
	"tlc/internal/sim"
)

func TestChainedGameHonestGapExact(t *testing.T) {
	// With honest play and agreeing views, each segment settles at
	// Charge of the true claims, so the chained gap is exactly
	// c·L2 + c²·L1.
	g := Game{C: 0.5, Vendor: core.HonestStrategy{}, Visited: core.HonestStrategy{}, Home: core.HonestStrategy{}}
	tr := Truth{Sent: 1000, Arrived: 920, Delivered: 850}
	out, err := g.Play(tr, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("honest chained game did not converge")
	}
	x1 := core.Charge(g.C, tr.Sent, tr.Arrived)
	if math.Abs(out.X1-x1) > 1e-9 {
		t.Fatalf("X1 = %v, want %v", out.X1, x1)
	}
	x2 := core.Charge(g.C, x1, tr.Delivered)
	if math.Abs(out.X2-x2) > 1e-9 {
		t.Fatalf("X2 = %v, want %v", out.X2, x2)
	}
	gap := out.X2 - tr.Delivered
	want := ChainedGapBound(g.C, tr.L1(), tr.L2())
	if math.Abs(gap-want) > 1e-9 {
		t.Fatalf("chained gap = %v, want exactly %v", gap, want)
	}
}

// TestChainedGapBoundProperty: under honest play the billed X2 never
// exceeds delivered volume by more than the chained bound, and never
// undercuts the delivered volume — across random truths and weights.
func TestChainedGapBoundProperty(t *testing.T) {
	rng := sim.NewRNG(2)
	for i := 0; i < 500; i++ {
		c := rng.Uniform(0.05, 0.95)
		sent := rng.Uniform(1e5, 1e9)
		arrived := sent * (1 - rng.Uniform(0, 0.3))
		delivered := arrived * (1 - rng.Uniform(0, 0.3))
		tr := Truth{Sent: sent, Arrived: arrived, Delivered: delivered}
		g := Game{C: c, Vendor: core.HonestStrategy{}, Visited: core.HonestStrategy{}, Home: core.HonestStrategy{}}
		out, err := g.Play(tr, rng.Fork("play"))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			t.Fatalf("case %d: no convergence", i)
		}
		gap := out.X2 - delivered
		bound := ChainedGapBound(c, tr.L1(), tr.L2())
		if gap < -1e-6 || gap > bound+1e-6 {
			t.Fatalf("case %d: gap %v outside [0, %v] (c=%v truth=%+v)", i, gap, bound, c, tr)
		}
		// The loose composition bound of the package doc also holds.
		if gap > c*(tr.L1()+tr.L2())+1e-6 {
			t.Fatalf("case %d: gap %v exceeds c·(L1+L2)", i, gap)
		}
	}
}

// TestChainedSelfishBounded: a selfish visited operator playing the
// randomized under/over-claiming strategy still cannot push the billed
// volume outside the span of the honest parties' views — each segment
// inherits Theorem 2's claim bounds.
func TestChainedSelfishBounded(t *testing.T) {
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		tr := Truth{Sent: 1e6, Arrived: 9.2e5, Delivered: 8.5e5}
		g := Game{
			C:       0.5,
			Vendor:  core.HonestStrategy{},
			Visited: core.RandomSelfishStrategy{},
			Home:    core.HonestStrategy{},
		}
		out, err := g.Play(tr, rng.Fork("play"))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			continue // selfish play may exhaust rounds; that is a non-settlement, not a breach
		}
		if out.X2 > tr.Sent || out.X2 < 0 {
			t.Fatalf("case %d: billed %v outside [0, sent=%v]", i, out.X2, tr.Sent)
		}
	}
}

func TestSettleZeroSumAndShape(t *testing.T) {
	s := Settle(900, 950)
	if !s.ZeroSum() {
		t.Fatalf("settlement not zero-sum: %+v", s.Balances)
	}
	if s.Balances[Subscriber] != -950 {
		t.Fatalf("subscriber balance %d, want -950", s.Balances[Subscriber])
	}
	if s.Balances[Home] != 0 {
		t.Fatalf("home balance %d, want 0 (billing passthrough)", s.Balances[Home])
	}
	if s.Balances[Visited] != 50 {
		t.Fatalf("visited balance %d, want X2-X1 = 50", s.Balances[Visited])
	}
	if s.Balances[Vendor] != 900 {
		t.Fatalf("vendor balance %d, want X1 = 900", s.Balances[Vendor])
	}
}

// Book accumulates settlements across cycles, one running balance per
// party: TestSettleZeroSumProperty's multi-cycle ledger.
type Book struct {
	Cycles   int
	Balances [numParties]int64
}

// Add folds one cycle's settlement into the running balances.
func (b *Book) Add(s Settlement) {
	b.Cycles++
	for i, d := range s.Balances {
		b.Balances[i] += d
	}
}

// ZeroSum reports whether the running balances net to exactly zero.
func (b *Book) ZeroSum() bool {
	var sum int64
	for _, bal := range b.Balances {
		sum += bal
	}
	return sum == 0
}

// TestSettleZeroSumProperty: every cycle of honest chained play nets
// to zero, per cycle and accumulated across the whole book, and the
// vendor is always made whole at exactly X1.
func TestSettleZeroSumProperty(t *testing.T) {
	rng := sim.NewRNG(4)
	var book Book
	for i := 0; i < 1000; i++ {
		c := rng.Uniform(0.05, 0.95)
		sent := rng.Uniform(1e5, 1e8)
		arrived := sent * (1 - rng.Uniform(0, 0.4))
		delivered := arrived * (1 - rng.Uniform(0, 0.4))
		g := Game{C: c, Vendor: core.HonestStrategy{}, Visited: core.HonestStrategy{}, Home: core.HonestStrategy{}}
		out, err := g.Play(Truth{Sent: sent, Arrived: arrived, Delivered: delivered}, rng.Fork("play"))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			t.Fatalf("case %d: no convergence", i)
		}
		s := Settle(uint64(math.Round(out.X1)), uint64(math.Round(out.X2)))
		if !s.ZeroSum() {
			t.Fatalf("case %d: cycle not zero-sum: %+v", i, s.Balances)
		}
		if s.Balances[Vendor] != int64(uint64(math.Round(out.X1))) {
			t.Fatalf("case %d: vendor paid %d, settled %v", i, s.Balances[Vendor], out.X1)
		}
		book.Add(s)
	}
	if !book.ZeroSum() {
		t.Fatalf("book not zero-sum after %d cycles: %+v", book.Cycles, book.Balances)
	}
	if book.Cycles != 1000 {
		t.Fatalf("book counted %d cycles", book.Cycles)
	}
}
