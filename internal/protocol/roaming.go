package protocol

import (
	"crypto/rsa"
	"errors"
	"fmt"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// Three-party roaming settlement over the wire. The edge vendor and
// the visited operator first settle their segment with the ordinary
// bilateral negotiation; the visited operator countersigns that proof,
// opens a second negotiation with the home operator claiming exactly
// the settled volume, and after that segment settles hands over the
// full chain in the chain codec's encoding. The home operator
// verifies the chain end to end before accepting it — a visited
// operator that inflates, replays or tampers anything gets a typed
// rejection.

// ErrBadChain marks a relayed settlement chain that failed end-to-end
// verification at the home operator.
var ErrBadChain = errors.New("protocol: roaming chain failed verification")

// RoamingConfig wires the three parties of one roaming settlement.
type RoamingConfig struct {
	Plan poc.Plan

	VendorKeys  *poc.KeyPair
	VisitedKeys *poc.KeyPair
	HomeKeys    *poc.KeyPair

	VendorStrategy  core.Strategy
	VisitedStrategy core.Strategy
	HomeStrategy    core.Strategy

	// VendorView is the vendor's view of the downstream segment and
	// VisitedViewA the visited operator's; they drive the Algorithm 1
	// game exactly as in a bilateral run.
	VendorView   core.View
	VisitedViewA core.View
	// HomeView is the home operator's view of the upstream segment:
	// Sent is its gateway estimate of what the visited operator pushed,
	// Received its record of what reached the subscriber.
	HomeView core.View

	RNG *sim.RNG

	// Verifier, when set, is the home operator's persistent chain
	// verifier (replay defence across cycles). Nil verifies each run
	// against a fresh replay set.
	Verifier *poc.ChainVerifier

	// Forge, when set, lets a byzantine visited operator rewrite the
	// chain between assembly and handoff. The home operator's verdict
	// on the forged chain is the experiment's measurement.
	Forge func(*poc.Chain) *poc.Chain
}

// RoamingResult is one settled (or rejected) roaming run.
type RoamingResult struct {
	// Chain is the settlement chain as the home operator accepted it;
	// nil when the handoff was rejected.
	Chain *poc.Chain
	// X1 is the vendor<->visited settled volume, X2 the final
	// visited<->home one (what the subscriber is billed).
	X1, X2 uint64
}

func (cfg *RoamingConfig) rng() *sim.RNG {
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(0)
	}
	return cfg.RNG
}

// RunRoaming drives a full three-party settlement in memory:
// downstream negotiation, countersignature, upstream negotiation, chain
// handoff, home-side verification.
func RunRoaming(cfg RoamingConfig) (*RoamingResult, error) {
	rng := cfg.rng()

	vendor := &Party{
		Role: poc.RoleEdge, Plan: cfg.Plan,
		Keys: cfg.VendorKeys, PeerKey: cfg.VisitedKeys.Public,
		Strategy: cfg.VendorStrategy, View: cfg.VendorView,
		RNG: rng.Fork("vendor"),
	}
	visitedDown := &Party{
		Role: poc.RoleOperator, Plan: cfg.Plan,
		Keys: cfg.VisitedKeys, PeerKey: cfg.VendorKeys.Public,
		Strategy: cfg.VisitedStrategy, View: cfg.VisitedViewA,
		RNG: rng.Fork("visited-down"),
	}
	_, resA, err := RunPair(vendor, visitedDown)
	if err != nil {
		return nil, fmt.Errorf("roaming downstream: %w", err)
	}

	cs, err := poc.Countersign(resA.PoC, rng.Fork("countersign"), cfg.VisitedKeys.Private)
	if err != nil {
		return nil, err
	}

	// The visited operator's view of the upstream segment: the honest
	// relay claims upstream exactly what it countersigned.
	x1 := float64(cs.Relayed)
	viewB := core.View{Sent: x1, Received: x1}
	visitedUp := &Party{
		Role: poc.RoleEdge, Plan: cfg.Plan,
		Keys: cfg.VisitedKeys, PeerKey: cfg.HomeKeys.Public,
		Strategy: cfg.VisitedStrategy, View: viewB,
		RNG: rng.Fork("visited-up"),
	}
	home := &Party{
		Role: poc.RoleOperator, Plan: cfg.Plan,
		Keys: cfg.HomeKeys, PeerKey: cfg.VisitedKeys.Public,
		Strategy: cfg.HomeStrategy, View: cfg.HomeView,
		RNG: rng.Fork("home"),
	}

	verifier := cfg.Verifier
	if verifier == nil {
		verifier = poc.NewChainVerifier(cfg.VendorKeys.Public,
			[]*rsa.PublicKey{cfg.VisitedKeys.Public}, cfg.HomeKeys.Public)
	}

	resB, resHome, err := RunPair(visitedUp, home)
	if err != nil {
		return nil, fmt.Errorf("roaming upstream: %w", err)
	}
	chain := &poc.Chain{
		Links: []poc.ChainLink{{Proof: *resA.PoC, Endorse: *cs}},
		Final: *resB.PoC,
	}
	if cfg.Forge != nil {
		chain = cfg.Forge(chain)
	}
	// The handoff is the chain codec's bytes, as they would travel on
	// the upstream conn after the settlement; the home operator trusts
	// nothing it has not decoded and verified itself.
	data, err := chain.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("roaming upstream (visited): %w", err)
	}
	accepted, err := acceptChain(data, verifier, cfg.Plan)
	if err != nil {
		return nil, fmt.Errorf("roaming upstream (home): %w", err)
	}

	return &RoamingResult{
		Chain: accepted,
		X1:    resA.X,
		X2:    resHome.X,
	}, nil
}

// acceptChain decodes and fully verifies a relayed settlement chain.
func acceptChain(data []byte, verifier *poc.ChainVerifier, plan poc.Plan) (*poc.Chain, error) {
	var chain poc.Chain
	if err := chain.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if err := verifier.Verify(&chain, plan); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChain, err)
	}
	return &chain, nil
}
