// Package core implements TLC's primary contribution: the
// loss-selfishness cancellation game of §5.1 (Algorithm 1), the
// negotiation strategies of §5.2 and §7.1 (honest, optimal
// minimax/maximin, random-selfish, and the misbehaving variants
// discussed in §5.1), and checkable statements of Theorems 2-4.
//
// The game is deliberately independent of the network emulation: it
// consumes two parties' usage views (however obtained) and produces a
// negotiated charging volume. The protocol encoding and signatures
// live in internal/poc; the transport in internal/protocol.
package core

import (
	"errors"
	"fmt"
	"math"

	"tlc/internal/sim"
)

// Role identifies a negotiation party.
type Role int

const (
	// EdgeRole is the edge application vendor (wants to minimise
	// its payment).
	EdgeRole Role = iota
	// OperatorRole is the cellular operator (wants to maximise the
	// charge).
	OperatorRole
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == EdgeRole {
		return "edge"
	}
	return "operator"
}

// View is what one party knows about the cycle's usage when entering
// the negotiation: its estimate of the edge-sent volume x̂e and of the
// edge-received volume x̂o, in bytes. Each party knows one side
// exactly (its own record) and estimates the other via the readily
// available mechanisms of §5.4 — the edge's local monitors, the
// operator's gateway charging function and RRC COUNTER CHECK.
type View struct {
	Sent     float64 // estimate of x̂e
	Received float64 // estimate of x̂o
}

// Charge evaluates Algorithm 1 line 8: the negotiated volume for a
// pair of claims under lost-data weight c.
//
//	x = xo + c·(xe − xo)   if xo ≤ xe
//	x = xe + c·(xo − xe)   otherwise
func Charge(c, xe, xo float64) float64 {
	if xo <= xe {
		return xo + c*(xe-xo)
	}
	return xe + c*(xo-xe)
}

// Expected returns the ground-truth charging volume x̂ = x̂o + c·(x̂e −
// x̂o) of Equation (1).
func Expected(c, sent, received float64) float64 {
	return Charge(c, sent, received)
}

// Bounds carries Algorithm 1's claim window (xL, xU); claims in the
// next round must fall inside it.
type Bounds struct {
	Lower float64
	Upper float64 // may be +Inf
}

// Contains reports whether a claim is admissible under the bounds.
// Algorithm 1 requires claims strictly inside the window, xe, xo ∈
// (xL, xU): the strictly shrinking open window is what forces a
// rejected negotiation to move and eventually terminate. The initial
// window (0, ∞) additionally admits a zero claim so that an idle
// cycle can settle at zero usage.
func (b Bounds) Contains(x float64) bool {
	if x == 0 && b.Lower == 0 {
		return !(b.Upper <= 0)
	}
	return x > b.Lower && x < b.Upper
}

// ClampInside moves a desired claim to an admissible point of the
// open window, nudging boundary claims inward by a small fraction of
// the window width. Honest parties use it when their truthful report
// became a window boundary after a rejection; the nudge is what the
// open-interval constraint of Algorithm 1 costs them.
func (b Bounds) ClampInside(x float64) float64 {
	if b.Contains(x) {
		return x
	}
	if math.IsInf(b.Upper, 1) {
		if x <= b.Lower {
			return b.Lower + math.Max(1e-9, b.Lower*1e-9)
		}
		return x
	}
	width := b.Upper - b.Lower
	if width <= 0 {
		// Degenerate (empty) window: nothing is admissible; return
		// the boundary and let the violation be flagged.
		return b.Lower
	}
	// The nudge must be vanishingly small relative to the window so
	// that a truthful party repeating its boundary claim does not
	// drag the window away from its record.
	step := math.Max(width*1e-9, math.Nextafter(b.Lower, b.Upper)-b.Lower)
	if x <= b.Lower {
		return b.Lower + step
	}
	return b.Upper - step
}

// Strategy decides a party's claims and accept/reject choices.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Claim returns the volume the party reports this round.
	Claim(role Role, view View, bounds Bounds, round int, rng *sim.RNG) float64
	// Decide reports whether the party accepts the other's claim.
	Decide(role Role, view View, own, other float64, round int, rng *sim.RNG) bool
}

// DefaultTolerance absorbs charging-record estimation error in the
// cross-checks: a party rejects the other's claim only when it
// exceeds the party's own ground truth by more than this fraction.
// Figure 18 puts the record error around 1-2% on average with a
// ≤7.7% 95th percentile; a 3% guard keeps honest negotiations from
// spuriously rejecting while still detecting meaningful selfishness.
const DefaultTolerance = 0.03

// crossCheckAccept implements the §4 "cross-check" bound: the edge
// rejects xo > x̂e (its sent record), the operator rejects xe < x̂o
// (its received record), each with a tolerance for record error.
func crossCheckAccept(role Role, view View, other, tol float64) bool {
	switch role {
	case EdgeRole:
		return other <= view.Sent*(1+tol)
	default:
		return other >= view.Received*(1-tol)
	}
}

// HonestStrategy reports the party's true record and accepts anything
// passing the cross-check. An honest edge claims its sent volume; an
// honest operator claims its received volume.
type HonestStrategy struct {
	// Tolerance for the cross-check; DefaultTolerance if zero.
	Tolerance float64
}

// Name implements Strategy.
func (HonestStrategy) Name() string { return "honest" }

func (s HonestStrategy) tol() float64 {
	if s.Tolerance > 0 {
		return s.Tolerance
	}
	return DefaultTolerance
}

// Claim implements Strategy.
func (s HonestStrategy) Claim(role Role, view View, bounds Bounds, _ int, _ *sim.RNG) float64 {
	var x float64
	if role == EdgeRole {
		x = view.Sent
	} else {
		x = view.Received
	}
	return bounds.ClampInside(x)
}

// Decide implements Strategy.
func (s HonestStrategy) Decide(role Role, view View, _, other float64, _ int, _ *sim.RNG) bool {
	return crossCheckAccept(role, view, other, s.tol())
}

// OptimalStrategy is the minimax/maximin equilibrium play of §5.1
// (proof in Appendix C): the edge claims its estimate of the received
// volume x̂o, the operator claims its estimate of the sent volume x̂e.
// With both parties rational this converges in one round to x = x̂
// (Theorems 3 and 4).
type OptimalStrategy struct {
	Tolerance float64
}

// Name implements Strategy.
func (OptimalStrategy) Name() string { return "optimal" }

func (s OptimalStrategy) tol() float64 {
	if s.Tolerance > 0 {
		return s.Tolerance
	}
	return DefaultTolerance
}

// Claim implements Strategy.
func (s OptimalStrategy) Claim(role Role, view View, bounds Bounds, _ int, _ *sim.RNG) float64 {
	var x float64
	if role == EdgeRole {
		x = view.Received // argmin_xe max_xo x  =>  xe = x̂o
	} else {
		x = view.Sent // argmax_xo min_xe x  =>  xo = x̂e
	}
	return bounds.ClampInside(x)
}

// Decide implements Strategy.
func (s OptimalStrategy) Decide(role Role, view View, _, other float64, _ int, _ *sim.RNG) bool {
	return crossCheckAccept(role, view, other, s.tol())
}

// RandomSelfishStrategy models §7.1's TLC-random: both parties are
// selfish but unaware of the optimal play. Each round the operator
// uniformly over-claims above its received record (up to OverCap
// times its sent estimate) and the edge uniformly under-claims below
// its sent record, re-drawing inside the tightening Algorithm 1
// bounds until both claims survive the cross-checks.
type RandomSelfishStrategy struct {
	Tolerance float64
	// OverCap bounds the operator's first-round over-claim as a
	// multiple of its sent estimate; 0 means 1.2.
	OverCap float64
}

// Name implements Strategy.
func (RandomSelfishStrategy) Name() string { return "random" }

func (s RandomSelfishStrategy) tol() float64 {
	if s.Tolerance > 0 {
		return s.Tolerance
	}
	return DefaultTolerance
}

func (s RandomSelfishStrategy) overCap() float64 {
	if s.OverCap > 1 {
		return s.OverCap
	}
	return 1.2
}

// Claim implements Strategy.
func (s RandomSelfishStrategy) Claim(role Role, view View, bounds Bounds, _ int, rng *sim.RNG) float64 {
	if role == EdgeRole {
		// Under-claim: uniform between the window floor and the
		// edge's sent record (it will not over-claim, Theorem 2).
		hi := math.Min(view.Sent, bounds.Upper)
		lo := math.Max(0, bounds.Lower)
		if lo >= hi {
			return bounds.ClampInside(hi)
		}
		return bounds.ClampInside(rng.Uniform(lo, hi))
	}
	// Over-claim: uniform between the operator's received record and
	// a capped multiple of what it believes was sent.
	lo := math.Max(view.Received, bounds.Lower)
	hi := math.Min(view.Sent*s.overCap(), bounds.Upper)
	if hi <= lo {
		return bounds.ClampInside(lo)
	}
	return bounds.ClampInside(rng.Uniform(lo, hi))
}

// Decide implements Strategy.
func (s RandomSelfishStrategy) Decide(role Role, view View, _, other float64, _ int, _ *sim.RNG) bool {
	return crossCheckAccept(role, view, other, s.tol())
}

// RoundRecord captures one round of Algorithm 1 for the audit trail.
type RoundRecord struct {
	EdgeClaim      float64
	OperatorClaim  float64
	EdgeAccepts    bool
	OperatorAccept bool
	ViolationEdge  bool // edge's claim fell outside the window
	ViolationOp    bool
}

// Outcome is the result of a negotiation.
type Outcome struct {
	// X is the negotiated charging volume (bytes); valid only when
	// Converged.
	X float64
	// Rounds is the number of CDR exchanges performed.
	Rounds int
	// Converged reports whether both parties accepted.
	Converged bool
	// Trail records every round.
	Trail []RoundRecord
}

// DefaultMaxRounds caps the negotiation against misbehaving parties.
const DefaultMaxRounds = 64

// Config parameterises a negotiation run.
type Config struct {
	// C is the lost-data charging weight from the data plan.
	C float64
	// Edge and Operator are the two parties' strategies.
	Edge, Operator Strategy
	// EdgeView and OperatorView are their usage views.
	EdgeView, OperatorView View
	// MaxRounds defaults to DefaultMaxRounds.
	MaxRounds int
	// RNG drives randomized strategies; required for those.
	RNG *sim.RNG
}

// ErrNoStrategy is returned when a party's strategy is missing.
var ErrNoStrategy = errors.New("core: both Edge and Operator strategies are required")

// Negotiate runs Algorithm 1 (loss-selfishness cancellation). It is
// the in-process form of the protocol; internal/protocol runs the
// same rounds as signed CDR/CDA/PoC messages over a transport.
func Negotiate(cfg Config) (Outcome, error) {
	if cfg.Edge == nil || cfg.Operator == nil {
		return Outcome{}, ErrNoStrategy
	}
	if cfg.C < 0 || cfg.C > 1 {
		return Outcome{}, fmt.Errorf("core: charging weight c=%v outside [0,1]", cfg.C)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	rng := cfg.RNG
	if rng == nil {
		rng = sim.NewRNG(0)
	}

	bounds := Bounds{Lower: 0, Upper: math.Inf(1)}
	out := Outcome{}
	for round := 1; round <= maxRounds; round++ {
		// Line 4: exchange CDRs.
		xe := cfg.Edge.Claim(EdgeRole, cfg.EdgeView, bounds, round, rng)
		xo := cfg.Operator.Claim(OperatorRole, cfg.OperatorView, bounds, round, rng)
		rec := RoundRecord{EdgeClaim: xe, OperatorClaim: xo}

		// Claims outside the agreed window are protocol violations
		// the other party detects locally and rejects (§5.1).
		rec.ViolationEdge = !bounds.Contains(xe)
		rec.ViolationOp = !bounds.Contains(xo)

		// Line 6: exchange decisions.
		rec.EdgeAccepts = !rec.ViolationOp &&
			cfg.Edge.Decide(EdgeRole, cfg.EdgeView, xe, xo, round, rng)
		rec.OperatorAccept = !rec.ViolationEdge &&
			cfg.Operator.Decide(OperatorRole, cfg.OperatorView, xo, xe, round, rng)

		out.Trail = append(out.Trail, rec)
		out.Rounds = round

		if rec.EdgeAccepts && rec.OperatorAccept {
			// Line 8: settle.
			out.X = Charge(cfg.C, xe, xo)
			out.Converged = true
			return out, nil
		}
		// Line 12: tighten the claim window. A violating claim is
		// treated as no claim at all — a misbehaving party must not
		// be able to manipulate the window — so the bounds update
		// only when both claims were admissible.
		if !rec.ViolationEdge && !rec.ViolationOp {
			bounds = Bounds{Lower: math.Min(xe, xo), Upper: math.Max(xe, xo)}
		}
	}
	return out, nil
}
