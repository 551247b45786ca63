// Package tlc is a Trusted, Loss-tolerant Charging library for the
// cellular edge, reproducing "Bridging the Data Charging Gap in the
// Cellular Edge" (SIGCOMM 2019).
//
// A cellular operator and an edge application vendor meter the same
// traffic at different points, so data loss and selfish claims open a
// charging gap between them. TLC closes it with a one-round
// loss-selfishness cancellation game and binds the outcome into a
// publicly verifiable Proof-of-Charging (PoC):
//
//	keys, _ := tlc.GenerateKeyPair()
//	peer, _ := tlc.GenerateKeyPair() // exchanged out of band
//	plan := tlc.Plan{Start: cycleStart, End: cycleEnd, C: 0.5}
//
//	edge := tlc.NewNegotiator(tlc.Edge, plan, keys, peer.Public(),
//		tlc.Usage{Sent: 1_000_000, Received: 930_000}, tlc.Optimal)
//	// One TLCMUX1 session over conn, a net.Conn whose peer calls
//	// Negotiate(conn, true); Negotiate closes conn.
//	receipt, err := edge.Negotiate(conn, false)
//
//	// Any third party can audit the receipt:
//	err = tlc.Verify(receipt.Proof, plan, keys.Public(), peer.Public())
//
// The internal packages contain the full emulated testbed (LTE core,
// small-cell RAN, workloads) used to regenerate every figure of the
// paper; cmd/tlcbench drives them.
package tlc

import (
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tlc/internal/core"
	"tlc/internal/keyio"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
	"tlc/internal/sim"
)

// Role identifies a negotiating party.
type Role int

const (
	// Edge is the edge application vendor (pays for data).
	Edge Role = iota
	// Operator is the cellular operator (charges for data).
	Operator
)

// Strategy selects the negotiation behaviour (§5.1, §7.1).
type Strategy int

const (
	// Honest reports the party's true record.
	Honest Strategy = iota
	// Optimal plays the minimax/maximin equilibrium: guaranteed
	// one-round convergence to the plan-correct charge against a
	// rational peer (Theorems 3-4).
	Optimal
	// RandomSelfish is a selfish party unaware of the optimal play;
	// it converges in a few rounds inside the Theorem 2 bounds.
	RandomSelfish
)

func (s Strategy) core() core.Strategy {
	switch s {
	case Honest:
		return core.HonestStrategy{}
	case RandomSelfish:
		return core.RandomSelfishStrategy{}
	default:
		return core.OptimalStrategy{}
	}
}

// String implements fmt.Stringer.
//
//tlcvet:allow unreached — the root tlc package's exported API
func (s Strategy) String() string {
	switch s {
	case Honest:
		return "honest"
	case RandomSelfish:
		return "random-selfish"
	default:
		return "optimal"
	}
}

// KeyPair wraps a party's RSA signing keys (§5.3.1).
type KeyPair struct {
	inner *poc.KeyPair
}

// GenerateKeyPair creates an RSA-1024 pair (the paper's prototype
// parameters) using crypto/rand.
func GenerateKeyPair() (*KeyPair, error) {
	return GenerateKeyPairBits(poc.DefaultKeyBits)
}

// GenerateKeyPairBits creates a pair with an explicit modulus size.
func GenerateKeyPairBits(bits int) (*KeyPair, error) {
	kp, err := poc.GenerateKeyPair(bits, nil)
	if err != nil {
		return nil, err
	}
	return &KeyPair{inner: kp}, nil
}

// Public returns the public half for distribution to peers and
// verifiers.
func (k *KeyPair) Public() *rsa.PublicKey { return k.inner.Public }

// Signer returns the private half for components that sign records
// directly, such as cmd/tlcd's session engine. Callers must treat it
// as read-only.
func (k *KeyPair) Signer() *rsa.PrivateKey { return k.inner.Private }

// Plan is the data-plan fragment both parties agreed on at setup: the
// charging cycle T = [Start, End) and the lost-data weight c ∈ [0,1]
// (c=0 bills only received data; c=1 bills all sent data).
type Plan struct {
	Start time.Time
	End   time.Time
	C     float64
}

// Validate checks plan invariants.
func (p Plan) Validate() error {
	if !p.End.After(p.Start) {
		return errors.New("tlc: plan cycle is empty")
	}
	if p.C < 0 || p.C > 1 {
		return fmt.Errorf("tlc: lost-data weight c=%v outside [0,1]", p.C)
	}
	return nil
}

func (p Plan) wire() poc.Plan {
	return poc.Plan{TStart: p.Start.UnixNano(), TEnd: p.End.UnixNano(), C: p.C}
}

// Usage is a party's usage view for the cycle, in bytes: its estimate
// of what the edge sent (x̂e) and of what the edge received (x̂o).
type Usage struct {
	Sent     uint64
	Received uint64
}

// ExpectedCharge returns the plan-correct billing volume x̂ = x̂o +
// c·(x̂e − x̂o) for a usage pair.
func ExpectedCharge(p Plan, u Usage) uint64 {
	return poc.RoundVolume(core.Expected(p.C, float64(u.Sent), float64(u.Received)))
}

// Receipt is a settled negotiation.
type Receipt struct {
	// X is the agreed billing volume in bytes.
	X uint64
	// Rounds is the number of claim exchanges used.
	Rounds int
	// Proof is the serialized, doubly signed Proof-of-Charging.
	Proof []byte
}

// Negotiator drives one side of a TLC negotiation.
type Negotiator struct {
	party protocol.Party
}

// NewNegotiator builds a negotiator. The peer's public key must have
// been exchanged beforehand (§5.3.1's key setup): Negotiate settles
// only with its holder.
func NewNegotiator(role Role, plan Plan, keys *KeyPair, peer *rsa.PublicKey, usage Usage, strategy Strategy) *Negotiator {
	r := poc.RoleEdge
	if role == Operator {
		r = poc.RoleOperator
	}
	return &Negotiator{party: protocol.Party{
		Role:     r,
		Plan:     plan.wire(),
		Keys:     keys.inner,
		PeerKey:  peer,
		Strategy: strategy.core(),
		View:     core.View{Sent: float64(usage.Sent), Received: float64(usage.Received)},
	}}
}

// Negotiate settles one cycle with the peer over conn as one TLCMUX1
// session, tlcd's wire; set initiate on exactly one side. Each side
// refuses a peer that does not present the key pinned at NewNegotiator
// with protocol.ErrBadPeer before it signs anything: the initiator
// checks the responder's key frame before it opens its session as a
// mux client, and the responder checks the initiator's hello before it
// serves one session at a time until the peer hangs up. Nonces come
// from crypto/rand. A net.Conn gets one 30 s deadline for the whole
// exchange, and Negotiate closes conn before it returns. On success
// both sides hold the same receipt.
func (n *Negotiator) Negotiate(conn io.ReadWriteCloser, initiate bool) (*Receipt, error) {
	defer func() { _ = conn.Close() }() // the exchange is over; closing it changes no receipt
	if n.party.PeerKey == nil {
		return nil, errors.New("tlc: the peer's public key is required")
	}
	if c, ok := conn.(net.Conn); ok {
		if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			return nil, fmt.Errorf("tlc: set the negotiation deadline: %w", err)
		}
	}
	if initiate {
		return n.initiate(conn)
	}
	return n.respond(conn)
}

// initiate opens the cycle as the one session of a mux client on conn
// and counts it in protocol.Metrics, as the engine counts the
// responder's.
func (n *Negotiator) initiate(conn io.ReadWriter) (*Receipt, error) {
	protocol.Metrics.NegotiationsStarted.Inc()
	res, err := session.RunClient(session.ClientConfig{
		Config: n.party.Config(), Sessions: 1, Conns: []io.ReadWriter{conn},
		ServerKey: n.party.PeerKey, Seed: time.Now().UnixNano(),
	})
	if err == nil && res.Settled != 1 {
		err = res.Cause
	}
	if err != nil {
		protocol.CountFailure(err)
		return nil, err
	}
	protocol.Metrics.NegotiationsSettled.Inc()
	protocol.Metrics.RoundsTotal.Add(uint64(res.Receipts[0].Rounds))
	r := Receipt(res.Receipts[0])
	return &r, nil
}

// respond serves conn with an engine that admits one session at a time
// and stops at the first settlement, which it keeps. The engine counts
// the sessions it admits; a refused hello counts as one failed
// negotiation.
func (n *Negotiator) respond(conn io.ReadWriter) (*Receipt, error) {
	hello, err := protocol.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("tlc: read the peer's hello: %w", err)
	}
	der, _ := session.IsHello(hello) // a frame that is no hello carries no key
	if key, err := x509.ParsePKIXPublicKey(der); err != nil || !n.party.PeerKey.Equal(key) {
		err := fmt.Errorf("%w: the hello does not carry the peer's key", protocol.ErrBadPeer)
		protocol.Metrics.NegotiationsStarted.Inc()
		protocol.CountFailure(err)
		return nil, err
	}
	var r *Receipt
	var eng *session.Engine
	eng, err = session.NewEngine(session.EngineConfig{
		Config: n.party.Config(), MaxSessions: 1, Seed: time.Now().UnixNano(),
		// It runs on ServeConn's goroutine, this one, and only once:
		// the engine admits no session after Stop.
		Recorder: func(pr session.ProofRecord) {
			r = &Receipt{X: pr.X, Rounds: pr.Rounds, Proof: pr.Proof}
			eng.Stop()
		},
	})
	if err != nil {
		return nil, err
	}
	if err := eng.ServeConn(conn, hello); r == nil {
		if err == nil {
			err = errors.New("tlc: the peer hung up without settling")
		}
		return nil, err
	}
	return r, nil
}

// Verify runs Algorithm 2 public verification on a serialized proof:
// plan coherence, both parties' signatures, nonce/sequence checks,
// and recomputation of the settled volume. Any third party holding
// the two public keys can call it.
func Verify(proof []byte, plan Plan, edgeKey, operatorKey *rsa.PublicKey) error {
	var p poc.PoC
	if err := p.UnmarshalBinary(proof); err != nil {
		return fmt.Errorf("tlc: decode proof: %w", err)
	}
	return poc.VerifyStateless(&p, plan.wire(), edgeKey, operatorKey)
}

// ProofVolume extracts the settled volume from a serialized proof
// without verifying it.
func ProofVolume(proof []byte) (uint64, error) {
	var p poc.PoC
	if err := p.UnmarshalBinary(proof); err != nil {
		return 0, fmt.Errorf("tlc: decode proof: %w", err)
	}
	return p.X, nil
}

// Verifier is a stateful public verifier that additionally rejects
// replayed proofs across calls (an FCC/court/MVNO auditor, §5.3.4).
type Verifier struct {
	inner *poc.Verifier
}

// NewVerifier builds a verifier for one edge/operator key pairing.
func NewVerifier(edgeKey, operatorKey *rsa.PublicKey) *Verifier {
	return &Verifier{inner: poc.NewVerifier(edgeKey, operatorKey)}
}

// Verify checks one proof against the published plan.
func (v *Verifier) Verify(proof []byte, plan Plan) error {
	var p poc.PoC
	if err := p.UnmarshalBinary(proof); err != nil {
		return fmt.Errorf("tlc: decode proof: %w", err)
	}
	return v.inner.Verify(&p, plan.wire())
}

// NegotiateLocal settles a cycle in-process given both parties' usage
// views: the simulation and single-binary path (no sockets). It
// returns the receipts seen by the initiator (operator) and responder
// (edge).
func NegotiateLocal(plan Plan, edgeKeys, opKeys *KeyPair, edgeUsage, opUsage Usage, edgeStrategy, opStrategy Strategy, seed int64) (*Receipt, *Receipt, error) {
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), edgeUsage, edgeStrategy).party
	op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), opUsage, opStrategy).party
	edge.RNG, op.RNG = sim.NewRNG(seed), sim.NewRNG(seed+1)
	ro, re, err := protocol.RunPair(&op, &edge)
	if err != nil {
		return nil, nil, err
	}
	return &Receipt{X: ro.X, Rounds: ro.Rounds, Proof: ro.Proof}, &Receipt{X: re.X, Rounds: re.Rounds, Proof: re.Proof}, nil
}

// LoadKeyPair reads a PKCS#8 PEM private key (as written by
// cmd/tlckeys or keyio.SavePrivateKey) and returns the full pair.
func LoadKeyPair(path string) (*KeyPair, error) {
	priv, err := keyio.LoadPrivateKey(path)
	if err != nil {
		return nil, err
	}
	return &KeyPair{inner: &poc.KeyPair{Private: priv, Public: &priv.PublicKey}}, nil
}
