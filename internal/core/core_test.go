package core

import (
	"math"
	"testing"
	"testing/quick"

	"tlc/internal/sim"
)

// AlwaysRejectStrategy is the misbehaving party of §5.1 that
// "intentionally rejects all claims". Negotiations against it never
// converge; Negotiate returns with Converged=false after MaxRounds.
type AlwaysRejectStrategy struct{ Inner Strategy }

// Name implements Strategy.
func (s AlwaysRejectStrategy) Name() string { return "always-reject" }

// Claim implements Strategy.
func (s AlwaysRejectStrategy) Claim(role Role, view View, bounds Bounds, round int, rng *sim.RNG) float64 {
	return s.inner().Claim(role, view, bounds, round, rng)
}

// Decide implements Strategy.
func (s AlwaysRejectStrategy) Decide(Role, View, float64, float64, int, *sim.RNG) bool { return false }

func (s AlwaysRejectStrategy) inner() Strategy {
	if s.Inner != nil {
		return s.Inner
	}
	return HonestStrategy{}
}

// BoundViolatorStrategy ignores Algorithm 1's line 12 constraint and
// keeps claiming an out-of-window volume. The other party detects the
// violation and rejects (§5.1's misbehaviour discussion).
type BoundViolatorStrategy struct {
	// Volume is the insisted claim.
	Volume float64
}

// Name implements Strategy.
func (BoundViolatorStrategy) Name() string { return "bound-violator" }

// Claim implements Strategy.
func (s BoundViolatorStrategy) Claim(Role, View, Bounds, int, *sim.RNG) float64 { return s.Volume }

// Decide implements Strategy.
func (s BoundViolatorStrategy) Decide(role Role, view View, _, other float64, _ int, _ *sim.RNG) bool {
	return crossCheckAccept(role, view, other, DefaultTolerance)
}

func TestCharge(t *testing.T) {
	cases := []struct {
		c, xe, xo, want float64
	}{
		{0, 100, 80, 80},   // only received data charged
		{1, 100, 80, 100},  // all sent data charged
		{0.5, 100, 80, 90}, // halfway
		{0.5, 80, 100, 90}, // swapped order uses the symmetric branch
		{0.25, 100, 100, 100},
		{0.75, 0, 0, 0},
	}
	for _, cse := range cases {
		if got := Charge(cse.c, cse.xe, cse.xo); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("Charge(%v,%v,%v) = %v, want %v", cse.c, cse.xe, cse.xo, got, cse.want)
		}
	}
}

func TestChargeBoundedProperty(t *testing.T) {
	// For any claims, the charge lies between min and max claim.
	f := func(c8 uint8, xe, xo uint32) bool {
		c := float64(c8%101) / 100
		x := Charge(c, float64(xe), float64(xo))
		lo, hi := math.Min(float64(xe), float64(xo)), math.Max(float64(xe), float64(xo))
		return x >= lo-1e-9 && x <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChargeMonotoneProperty(t *testing.T) {
	// x is positively monotonic in both claims (the lemma behind
	// Theorem 2's proof).
	f := func(c8 uint8, xe, xo, bump uint16) bool {
		c := float64(c8%101) / 100
		base := Charge(c, float64(xe), float64(xo))
		upE := Charge(c, float64(xe)+float64(bump), float64(xo))
		upO := Charge(c, float64(xe), float64(xo)+float64(bump))
		return upE >= base-1e-9 && upO >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func exactViews(sent, received float64) (View, View) {
	v := View{Sent: sent, Received: received}
	return v, v
}

func TestHonestOneRoundExact(t *testing.T) {
	// Theorem 4 case (1): honest parties, exact views: 1 round, x = x̂.
	ev, ov := exactViews(1000, 900)
	out, err := Negotiate(Config{
		C: 0.5, Edge: HonestStrategy{}, Operator: HonestStrategy{},
		EdgeView: ev, OperatorView: ov,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged || out.Rounds != 1 {
		t.Fatalf("honest negotiation: %+v", out)
	}
	want := Expected(0.5, 1000, 900)
	if math.Abs(out.X-want) > 1e-9 {
		t.Fatalf("x = %v, want %v", out.X, want)
	}
}

func TestOptimalOneRoundExact(t *testing.T) {
	// Theorem 4 case (2): rational parties playing minimax/maximin:
	// 1 round, x = x̂, for every c.
	for _, c := range []float64{0, 0.25, 0.5, 0.75, 1} {
		ev, ov := exactViews(5000, 4200)
		out, err := Negotiate(Config{
			C: c, Edge: OptimalStrategy{}, Operator: OptimalStrategy{},
			EdgeView: ev, OperatorView: ov,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged || out.Rounds != 1 {
			t.Fatalf("c=%v: %+v", c, out)
		}
		if want := Expected(c, 5000, 4200); math.Abs(out.X-want) > 1e-9 {
			t.Fatalf("c=%v: x = %v, want %v", c, out.X, want)
		}
	}
}

func TestTheorem3CorrectnessProperty(t *testing.T) {
	// Rational (optimal) parties with exact views always converge to
	// x = x̂ regardless of the usage pair and c.
	f := func(c8 uint8, recvK uint16, lossK uint16) bool {
		c := float64(c8%101) / 100
		received := float64(recvK)
		sent := received + float64(lossK)
		ev, ov := exactViews(sent, received)
		out, err := Negotiate(Config{
			C: c, Edge: OptimalStrategy{}, Operator: OptimalStrategy{},
			EdgeView: ev, OperatorView: ov,
		})
		if err != nil || !out.Converged || out.Rounds != 1 {
			return false
		}
		return math.Abs(out.X-Expected(c, sent, received)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2BoundProperty(t *testing.T) {
	// For every mix of honest/optimal/random strategies with exact
	// views, the negotiated charge satisfies x̂o ≤ x ≤ x̂e (up to the
	// cross-check tolerance).
	rng := sim.NewRNG(77)
	strategies := []Strategy{HonestStrategy{}, OptimalStrategy{}, RandomSelfishStrategy{}}
	f := func(ei, oi uint8, recvK uint16, lossK uint16, seed int64) bool {
		edge := strategies[int(ei)%len(strategies)]
		op := strategies[int(oi)%len(strategies)]
		received := float64(recvK) + 1
		sent := received + float64(lossK)
		ev, ov := exactViews(sent, received)
		out, err := Negotiate(Config{
			C: 0.5, Edge: edge, Operator: op,
			EdgeView: ev, OperatorView: ov,
			RNG: rng.Fork("case"), MaxRounds: 128,
		})
		if err != nil {
			return false
		}
		if !out.Converged {
			// Random strategies must converge within the generous
			// round budget.
			return false
		}
		tol := DefaultTolerance
		return out.X >= received*(1-tol)-1e-6 && out.X <= sent*(1+tol)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedChargingVsLegacyUnbounded(t *testing.T) {
	// §3.1: in legacy 4G/5G a dishonest operator can claim an
	// arbitrarily high volume. Under TLC the same operator's claim is
	// rejected by the edge cross-check and the settled charge stays
	// bounded by the sent volume.
	ev, ov := exactViews(1000, 900)
	// The operator opens with a 100x over-claim then follows the
	// random selfish strategy inside the tightening bounds.
	out, err := Negotiate(Config{
		C:    0.5,
		Edge: OptimalStrategy{}, Operator: RandomSelfishStrategy{OverCap: 100},
		EdgeView: ev, OperatorView: ov,
		RNG: sim.NewRNG(5), MaxRounds: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("did not converge: %+v rounds=%d", out, out.Rounds)
	}
	if out.X > 1000*(1+DefaultTolerance) {
		t.Fatalf("charge %v exceeds sent volume bound", out.X)
	}
}

func TestRandomStrategyConvergesInFewRounds(t *testing.T) {
	// Figure 16b: TLC-random needs ~2.7-4.6 rounds on average.
	rng := sim.NewRNG(11)
	total := 0
	const n = 400
	for i := 0; i < n; i++ {
		ev, ov := exactViews(1000, 930) // ~7% loss, webcam-like
		out, err := Negotiate(Config{
			C: 0.5, Edge: RandomSelfishStrategy{}, Operator: RandomSelfishStrategy{},
			EdgeView: ev, OperatorView: ov,
			RNG: rng.Fork("iter"), MaxRounds: 256,
		})
		if err != nil || !out.Converged {
			t.Fatalf("iteration %d failed: %+v err=%v", i, out, err)
		}
		total += out.Rounds
	}
	avg := float64(total) / n
	if avg < 1.5 || avg > 8 {
		t.Fatalf("average rounds = %.2f, want in the paper's few-round regime", avg)
	}
}

func TestSmallerLossNeedsMoreRandomRounds(t *testing.T) {
	// The acceptance window is the loss interval; gaming's tiny loss
	// made TLC-random need the most rounds in Figure 16b (4.6).
	rng := sim.NewRNG(13)
	avgRounds := func(received float64) float64 {
		total := 0
		const n = 300
		for i := 0; i < n; i++ {
			ev, ov := exactViews(1000, received)
			out, _ := Negotiate(Config{
				C: 0.5, Edge: RandomSelfishStrategy{}, Operator: RandomSelfishStrategy{},
				EdgeView: ev, OperatorView: ov,
				RNG: rng.Fork("iter"), MaxRounds: 512,
			})
			if !out.Converged {
				t.Fatal("no convergence")
			}
			total += out.Rounds
		}
		return float64(total) / n
	}
	smallLoss := avgRounds(995) // 0.5% loss (gaming-like)
	bigLoss := avgRounds(800)   // 20% loss (congested VR-like)
	if smallLoss <= bigLoss {
		t.Fatalf("rounds(small loss)=%.2f <= rounds(big loss)=%.2f", smallLoss, bigLoss)
	}
}

func TestAlwaysRejectNeverConverges(t *testing.T) {
	ev, ov := exactViews(1000, 900)
	out, err := Negotiate(Config{
		C: 0.5, Edge: OptimalStrategy{}, Operator: AlwaysRejectStrategy{},
		EdgeView: ev, OperatorView: ov,
		RNG: sim.NewRNG(1), MaxRounds: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Converged {
		t.Fatal("converged against an always-rejecting party")
	}
	if out.Rounds != 16 {
		t.Fatalf("rounds = %d, want MaxRounds", out.Rounds)
	}
}

func TestBoundViolatorIsRejected(t *testing.T) {
	// An operator insisting on a claim outside the agreed window is
	// auto-rejected every round; it gains nothing (no PoC, §5.1).
	ev, ov := exactViews(1000, 900)
	out, err := Negotiate(Config{
		C:    0.5,
		Edge: HonestStrategy{}, Operator: BoundViolatorStrategy{Volume: 1e9},
		EdgeView: ev, OperatorView: ov,
		RNG: sim.NewRNG(1), MaxRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Converged {
		t.Fatal("bound violator extracted a settlement")
	}
	for i, rec := range out.Trail {
		if i == 0 {
			continue // round 1's window is (0, inf): nothing to violate
		}
		if !rec.ViolationOp {
			t.Fatalf("round %d: violation not flagged: %+v", i+1, rec)
		}
		if rec.EdgeAccepts {
			t.Fatalf("round %d: edge accepted a violating claim", i+1)
		}
	}
}

func TestHonestVsRationalStillBounded(t *testing.T) {
	// §5.2: one honest + one rational party may converge to x != x̂,
	// but Theorem 2's bound still holds — better than legacy.
	rng := sim.NewRNG(21)
	for i := 0; i < 100; i++ {
		ev, ov := exactViews(1000, 900)
		out, err := Negotiate(Config{
			C: 0.5, Edge: HonestStrategy{}, Operator: RandomSelfishStrategy{},
			EdgeView: ev, OperatorView: ov,
			RNG: rng.Fork("i"), MaxRounds: 256,
		})
		if err != nil || !out.Converged {
			t.Fatalf("iteration %d: %+v err=%v", i, out, err)
		}
		if out.X < 900*(1-DefaultTolerance)-1e-9 || out.X > 1000*(1+DefaultTolerance)+1e-9 {
			t.Fatalf("charge %v escaped the Theorem 2 bound", out.X)
		}
	}
}

func TestViewsWithRecordErrorStillOneRound(t *testing.T) {
	// §7.2: TLC-optimal converged in 1 round on the real testbed
	// despite ~2% record errors; the tolerance absorbs them.
	ev := View{Sent: 1000, Received: 912} // edge's estimate of x̂o is 2% high
	ov := View{Sent: 1008, Received: 894} // operator's estimates off too
	out, err := Negotiate(Config{
		C: 0.5, Edge: OptimalStrategy{}, Operator: OptimalStrategy{},
		EdgeView: ev, OperatorView: ov,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged || out.Rounds != 1 {
		t.Fatalf("record errors broke 1-round convergence: %+v", out)
	}
	// The result deviates from x̂ = 950 only by the record error.
	if math.Abs(out.X-950) > 950*0.05 {
		t.Fatalf("x = %v, too far from 950", out.X)
	}
}

func TestNegotiateValidation(t *testing.T) {
	ev, ov := exactViews(10, 5)
	if _, err := Negotiate(Config{C: 0.5, Edge: HonestStrategy{}, EdgeView: ev, OperatorView: ov}); err == nil {
		t.Fatal("missing operator strategy accepted")
	}
	if _, err := Negotiate(Config{C: 1.5, Edge: HonestStrategy{}, Operator: HonestStrategy{}, EdgeView: ev, OperatorView: ov}); err == nil {
		t.Fatal("c > 1 accepted")
	}
	if _, err := Negotiate(Config{C: -0.1, Edge: HonestStrategy{}, Operator: HonestStrategy{}, EdgeView: ev, OperatorView: ov}); err == nil {
		t.Fatal("c < 0 accepted")
	}
}

func TestBoundsContains(t *testing.T) {
	// Algorithm 1's window is the open interval (xL, xU).
	b := Bounds{Lower: 10, Upper: 20}
	if b.Contains(10) || b.Contains(20) {
		t.Fatal("boundary claims must violate the open window")
	}
	if !b.Contains(15) || !b.Contains(10.001) || !b.Contains(19.999) {
		t.Fatal("interior claims rejected")
	}
	if b.Contains(9.999) || b.Contains(20.001) {
		t.Fatal("out-of-window accepted")
	}
	inf := Bounds{Lower: 0, Upper: math.Inf(1)}
	if !inf.Contains(1e18) {
		t.Fatal("infinite upper bound broken")
	}
	// The initial window admits a zero claim (idle cycle).
	if !inf.Contains(0) {
		t.Fatal("zero claim rejected in initial window")
	}
	if (Bounds{Lower: 5, Upper: 10}).Contains(0) {
		t.Fatal("zero claim accepted in a tightened window")
	}
}

func TestBoundsClampInside(t *testing.T) {
	b := Bounds{Lower: 10, Upper: 20}
	for _, x := range []float64{5, 10, 15, 20, 25} {
		got := b.ClampInside(x)
		if !b.Contains(got) {
			t.Fatalf("ClampInside(%v) = %v not inside (10,20)", x, got)
		}
	}
	// Interior values pass through unchanged.
	if b.ClampInside(15) != 15 {
		t.Fatal("interior value moved")
	}
	// The nudge is tiny relative to the window.
	if got := b.ClampInside(10); got-10 > 0.001 {
		t.Fatalf("lower nudge too large: %v", got)
	}
	// Infinite window: values above the floor pass through.
	inf := Bounds{Lower: 100, Upper: math.Inf(1)}
	if inf.ClampInside(1e12) != 1e12 {
		t.Fatal("infinite window mangled a valid claim")
	}
	if got := inf.ClampInside(50); got <= 100 {
		t.Fatalf("below-floor claim not nudged inside: %v", got)
	}
	// Degenerate window: returns the boundary (violation flagged by
	// the caller).
	deg := Bounds{Lower: 7, Upper: 7}
	if deg.ClampInside(7) != 7 {
		t.Fatal("degenerate window handling changed")
	}
}

func TestRoleString(t *testing.T) {
	if EdgeRole.String() != "edge" || OperatorRole.String() != "operator" {
		t.Fatal("role strings wrong")
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]Strategy{
		"honest":         HonestStrategy{},
		"optimal":        OptimalStrategy{},
		"random":         RandomSelfishStrategy{},
		"always-reject":  AlwaysRejectStrategy{},
		"bound-violator": BoundViolatorStrategy{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Fatalf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestZeroLossDegenerateCase(t *testing.T) {
	// No loss at all: every strategy must settle at the true volume.
	ev, ov := exactViews(1000, 1000)
	for _, strat := range []Strategy{HonestStrategy{}, OptimalStrategy{}} {
		out, err := Negotiate(Config{
			C: 0.5, Edge: strat, Operator: strat,
			EdgeView: ev, OperatorView: ov, RNG: sim.NewRNG(3),
		})
		if err != nil || !out.Converged {
			t.Fatalf("%s: %+v err=%v", strat.Name(), out, err)
		}
		if math.Abs(out.X-1000) > 1e-9 {
			t.Fatalf("%s: x = %v, want 1000", strat.Name(), out.X)
		}
	}
}

func TestZeroUsage(t *testing.T) {
	ev, ov := exactViews(0, 0)
	out, err := Negotiate(Config{
		C: 0.5, Edge: OptimalStrategy{}, Operator: OptimalStrategy{},
		EdgeView: ev, OperatorView: ov,
	})
	if err != nil || !out.Converged || out.X != 0 {
		t.Fatalf("zero usage: %+v err=%v", out, err)
	}
}
