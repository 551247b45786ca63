package protocol

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// Config is the negotiation configuration one party shares across all
// of its sessions. It is immutable once a Machine uses it.
type Config struct {
	Role     poc.Role
	Plan     poc.Plan
	Key      *rsa.PrivateKey
	Strategy core.Strategy
	View     core.View
	// MaxRounds caps claims per session (0 = core.DefaultMaxRounds).
	MaxRounds int
	// KeepProof retains the serialized final PoC on each settled
	// machine (copied out of transport buffers where needed) so a
	// settlement recorder can persist it. Off by default: the hot
	// path stays allocation-free when nobody asks for the bytes.
	KeepProof bool
}

func (c *Config) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return core.DefaultMaxRounds
}

// Validate reports a configuration no Machine can run: a missing key
// or strategy, or a role that is neither edge nor operator.
func (c *Config) Validate() error {
	if c.Key == nil || c.Strategy == nil {
		return errors.New("protocol: Config.Key and Config.Strategy are required")
	}
	if c.Role != poc.RoleEdge && c.Role != poc.RoleOperator {
		return fmt.Errorf("protocol: bad role %v", c.Role)
	}
	return nil
}

// Env is the execution environment a Machine advances in: the
// deterministic RNG stream driving the strategy and the nonce
// randomness (nil = crypto/rand, the live default). One Env is owned
// by exactly one goroutine at a time, which is what lets machines
// share it without locks.
type Env struct {
	RNG   *sim.RNG
	Nonce io.Reader
}

// Machine is one charging negotiation, Algorithm 1 over the Figure 7
// CDR/CDA/PoC exchange, as an explicit state machine: Start sends the
// initiator's opening claim and Handle takes one peer message in and
// emits at most one message out. It is the only wire implementation of
// the game. RunPair pumps two in memory, Byzantine.Play runs one
// against a dishonest peer, and internal/session drives them over
// TLCMUX1 conns, thousands per conn.
// Peer failures come back typed (ErrBadPeer, ErrStaleProof,
// ErrBadMessage, ErrNoConvergence).
type Machine struct {
	cfg     *Config
	peerKey *rsa.PublicKey

	bounds      core.Bounds
	seq         uint32
	lastOwn     *poc.CDR
	lastSentCDA *poc.CDA
	rounds      int
	myLastVol   float64

	done     bool
	finisher bool // we sent the final PoC (vs received it)
	x        uint64
	proof    []byte
}

// Init readies the machine for a fresh negotiation against peerKey.
func (m *Machine) Init(cfg *Config, peerKey *rsa.PublicKey) {
	*m = Machine{
		cfg:       cfg,
		peerKey:   peerKey,
		bounds:    core.Bounds{Lower: 0, Upper: math.Inf(1)},
		myLastVol: math.NaN(),
	}
}

// Done reports whether the negotiation settled; X is then the agreed
// volume and Finisher whether this side signed the final PoC.
func (m *Machine) Done() bool     { return m.done }
func (m *Machine) X() uint64      { return m.x }
func (m *Machine) Finisher() bool { return m.finisher }
func (m *Machine) Rounds() int    { return m.rounds }

// Proof returns the serialized final PoC of a settled machine, or nil
// unless Config.KeepProof was set. The slice is owned by the machine:
// it never aliases a frame handed to Handle.
func (m *Machine) Proof() []byte { return m.proof }

func (m *Machine) coreRole() core.Role {
	if m.cfg.Role == poc.RoleEdge {
		return core.EdgeRole
	}
	return core.OperatorRole
}

// sendCDR builds, signs and emits our next claim (Algorithm 1's
// claim step), enforcing the round cap.
func (m *Machine) sendCDR(env *Env, emit func([]byte) error) error {
	m.rounds++
	if m.rounds > m.cfg.maxRounds() {
		return ErrNoConvergence
	}
	vol := m.cfg.Strategy.Claim(m.coreRole(), m.cfg.View, m.bounds, m.rounds, env.RNG)
	m.myLastVol = vol
	cdr, err := poc.BuildCDR(m.cfg.Plan, m.cfg.Role, m.seq, poc.RoundVolume(vol), env.Nonce, m.cfg.Key)
	if err != nil {
		return err
	}
	m.seq++
	m.lastOwn = cdr
	data, err := cdr.MarshalBinary()
	if err != nil {
		return err
	}
	return emit(data)
}

// tighten implements Algorithm 1 line 12 after any reject.
func (m *Machine) tighten(peerVol uint64) {
	if math.IsNaN(m.myLastVol) {
		return
	}
	lo := math.Min(m.myLastVol, float64(peerVol))
	hi := math.Max(m.myLastVol, float64(peerVol))
	m.bounds = core.Bounds{Lower: lo, Upper: hi}
}

// Start sends the opening claim; only the initiating side calls it.
func (m *Machine) Start(env *Env, emit func([]byte) error) error {
	return m.sendCDR(env, emit)
}

// validateCDR checks plan and signature of a peer claim.
func (m *Machine) validateCDR(c *poc.CDR) error {
	if !c.Plan.Equal(m.cfg.Plan) {
		return fmt.Errorf("%w: plan mismatch", ErrBadPeer)
	}
	if c.Role != m.cfg.Role.Other() {
		return fmt.Errorf("%w: role mismatch", ErrBadPeer)
	}
	if err := c.Verify(m.peerKey); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPeer, err)
	}
	return nil
}

// Handle advances the machine with one peer message. It returns
// done=true when the negotiation settled (X/Finisher are then set);
// on error the session is dead and the caller tears it down. frame
// is not retained. Each message handed to emit is a fresh allocation
// the machine never touches again. All RSA work happens inline.
func (m *Machine) Handle(frame []byte, env *Env, emit func([]byte) error) (finished bool, err error) {
	if m.done {
		return true, fmt.Errorf("%w: message after settlement", ErrBadMessage)
	}
	if len(frame) == 0 {
		return false, ErrBadMessage
	}
	switch frame[0] {
	case 1: // CDR: the peer's opening claim or a reject/re-claim.
		var cdr poc.CDR
		if err := cdr.UnmarshalBinary(frame); err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		if err := m.validateCDR(&cdr); err != nil {
			return false, err
		}
		inWindow := m.bounds.Contains(float64(cdr.Volume))
		accept := inWindow && m.cfg.Strategy.Decide(m.coreRole(), m.cfg.View, m.myLastVol, float64(cdr.Volume), m.rounds+1, env.RNG)
		if accept {
			m.rounds++
			if m.rounds > m.cfg.maxRounds() {
				return false, ErrNoConvergence
			}
			vol := m.cfg.Strategy.Claim(m.coreRole(), m.cfg.View, m.bounds, m.rounds, env.RNG)
			m.myLastVol = vol
			cda, err := poc.BuildCDA(m.cfg.Plan, m.cfg.Role, cdr.Seq, poc.RoundVolume(vol), &cdr, env.Nonce, m.cfg.Key)
			if err != nil {
				return false, err
			}
			m.seq = cdr.Seq + 1
			data, err := cda.MarshalBinary()
			if err != nil {
				return false, err
			}
			if err := emit(data); err != nil {
				return false, err
			}
			m.lastSentCDA = cda
			return false, nil
		}
		// Implicit reject: tighten and re-claim (Figure 7 case 2/3).
		m.tighten(cdr.Volume)
		return false, m.sendCDR(env, emit)

	case 2: // CDA: the peer accepted our last CDR.
		var cda poc.CDA
		if err := cda.UnmarshalBinary(frame); err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		if !cda.Plan.Equal(m.cfg.Plan) || cda.Role != m.cfg.Role.Other() {
			return false, fmt.Errorf("%w: CDA plan/role", ErrBadPeer)
		}
		if err := cda.Verify(m.peerKey); err != nil {
			return false, fmt.Errorf("%w: CDA signature: %v", ErrBadPeer, err)
		}
		// The embedded CDR must be exactly the claim we sent — no
		// mix-and-match across rounds.
		if m.lastOwn == nil || cda.Peer.Nonce != m.lastOwn.Nonce || cda.Peer.Volume != m.lastOwn.Volume {
			return false, fmt.Errorf("%w: CDA embeds a claim we did not send", ErrBadPeer)
		}
		accept := m.cfg.Strategy.Decide(m.coreRole(), m.cfg.View, m.myLastVol, float64(cda.Volume), m.rounds, env.RNG)
		if accept {
			proof, err := poc.BuildPoC(&cda, m.cfg.Key)
			if err != nil {
				return false, err
			}
			data, err := proof.MarshalBinary()
			if err != nil {
				return false, err
			}
			if err := emit(data); err != nil {
				return false, err
			}
			m.done, m.finisher, m.x = true, true, proof.X
			if m.cfg.KeepProof {
				// data is a fresh MarshalBinary allocation the machine
				// does not touch again, so it is ours to keep.
				m.proof = data
			}
			return true, nil
		}
		m.tighten(cda.Volume)
		return false, m.sendCDR(env, emit)

	case 3: // PoC: the peer finished the negotiation.
		var proof poc.PoC
		if err := proof.UnmarshalBinary(frame); err != nil {
			return false, fmt.Errorf("%w: %v", ErrBadMessage, err)
		}
		// Validate the whole chain as an Algorithm 2 verifier would,
		// with our key as one side.
		var edgeKey, opKey *rsa.PublicKey
		if m.cfg.Role == poc.RoleEdge {
			edgeKey, opKey = &m.cfg.Key.PublicKey, m.peerKey
		} else {
			edgeKey, opKey = m.peerKey, &m.cfg.Key.PublicKey
		}
		if err := poc.VerifyStateless(&proof, m.cfg.Plan, edgeKey, opKey); err != nil {
			return false, fmt.Errorf("%w: PoC: %v", ErrBadPeer, err)
		}
		// Signature validity is not enough: the PoC must embed the
		// exact CDA this side sent in this exchange, or it is a
		// replay from an earlier negotiation.
		if m.lastSentCDA == nil ||
			proof.CDA.Nonce != m.lastSentCDA.Nonce ||
			proof.CDA.Volume != m.lastSentCDA.Volume ||
			proof.CDA.Seq != m.lastSentCDA.Seq {
			return false, fmt.Errorf("%w: PoC does not embed the CDA we sent", ErrStaleProof)
		}
		m.done, m.finisher, m.x = true, false, proof.X
		if m.cfg.KeepProof {
			// frame may alias a frame reader's buffer, which its next
			// read reuses; the retained proof must be a copy.
			m.proof = append([]byte(nil), frame...)
		}
		return true, nil

	default:
		return false, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, frame[0])
	}
}
