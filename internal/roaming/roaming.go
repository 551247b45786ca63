// Package roaming models TLC's multi-operator topology: a subscriber
// of a home operator roams into a visited network where an edge vendor
// serves it locally. Three parties now meter independently — the
// vendor at its egress, the visited operator at its ingress and radio,
// the home operator at its billing gateway — and the charging gap of
// the bilateral game composes across the handover.
//
// The settlement runs Algorithm 1 twice: the vendor and the visited
// operator settle the downstream segment at X1, the visited operator
// relays exactly X1 upstream (countersigned — see poc.Chain) and
// settles the upstream segment with the home operator at X2, which is
// what the subscriber is billed. Under honest play the chained gap
// against delivered volume D is
//
//	X2 − D = c·L2 + c²·L1   ≤   c·(L1 + L2)
//
// where L1 is the loss upstream of the visited ingress and L2 the
// loss inside the visited network: each segment's Algorithm 1 bound
// (Theorem 1) applies to its own loss, and the downstream residual is
// attenuated by another factor c as it transits the second game. The
// per-cycle settlement nets the inter-operator balances to exactly
// zero under honest play (see Settle); a byzantine visited operator
// that inflates, replays or tampers the relayed evidence never gets a
// chain past the home operator's verifier (see Forger).
package roaming

import (
	"tlc/internal/core"
	"tlc/internal/sim"
)

// Truth is the ground-truth byte flow of one roaming cycle, measured
// at the three points of the path.
type Truth struct {
	// Sent is the vendor's egress volume.
	Sent float64
	// Arrived is what reached the visited operator's ingress
	// (Sent minus the loss upstream of the visited network).
	Arrived float64
	// Delivered is what reached the subscriber's radio (Arrived minus
	// the loss inside the visited network).
	Delivered float64
}

// L1 is the loss upstream of the visited ingress.
func (t Truth) L1() float64 { return t.Sent - t.Arrived }

// L2 is the loss inside the visited network.
func (t Truth) L2() float64 { return t.Arrived - t.Delivered }

// Views derives the honest parties' views of the two segments.
// Downstream, the vendor knows its sent volume exactly and estimates
// the visited ingress; the visited operator knows its ingress exactly
// and estimates the vendor egress. Upstream, the home operator's
// gateway accounting tells it what the visited operator relayed
// (estimate of the claim) and the subscriber-side records what was
// delivered. The visited operator's upstream view is derived from the
// settled X1 at negotiation time, not here.
func (t Truth) Views() (vendor, visitedDown, home core.View) {
	vendor = core.View{Sent: t.Sent, Received: t.Arrived}
	visitedDown = core.View{Sent: t.Sent, Received: t.Arrived}
	home = core.View{Sent: t.Arrived, Received: t.Delivered}
	return vendor, visitedDown, home
}

// ChainedGapBound is the honest-play bound on X2 − Delivered: each
// segment contributes its Algorithm 1 share, the downstream one
// attenuated once more by c.
func ChainedGapBound(c, l1, l2 float64) float64 {
	return c*l2 + c*c*l1
}

// Game is the in-process chained Algorithm 1 game — the crypto-free
// twin of protocol.RunRoaming, fast enough for parameter sweeps.
type Game struct {
	// C is the lost-data weight of the published plan.
	C float64
	// Vendor, Visited and Home choose each party's strategy. The
	// visited operator plays the operator side downstream and the
	// claimant side upstream with the same strategy.
	Vendor  core.Strategy
	Visited core.Strategy
	Home    core.Strategy
}

// Outcome is one chained settlement.
type Outcome struct {
	// X1 and X2 are the two settled volumes; the subscriber is billed
	// X2.
	X1, X2 float64
	// Converged reports whether both segments settled.
	Converged bool
}

// Play runs the chained game for one cycle of ground truth. The
// visited operator enters the upstream segment claiming the settled
// X1 — the same invariant the countersignature pins on the wire.
func (g Game) Play(t Truth, rng *sim.RNG) (Outcome, error) {
	vendor, visitedDown, home := t.Views()
	a, err := core.Negotiate(core.Config{
		C:            g.C,
		Edge:         g.Vendor,
		Operator:     g.Visited,
		EdgeView:     vendor,
		OperatorView: visitedDown,
		RNG:          rng.Fork("down"),
	})
	if err != nil {
		return Outcome{}, err
	}
	if !a.Converged {
		return Outcome{}, nil
	}
	b, err := core.Negotiate(core.Config{
		C:            g.C,
		Edge:         g.Visited,
		Operator:     g.Home,
		EdgeView:     core.View{Sent: a.X, Received: a.X},
		OperatorView: home,
		RNG:          rng.Fork("up"),
	})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		X1:        a.X,
		X2:        b.X,
		Converged: b.Converged,
	}, nil
}
