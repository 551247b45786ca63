package protocol

import (
	"errors"
	"fmt"
	"io"

	"tlc/internal/poc"
	"tlc/internal/sim"
)

// Byzantine peer modes: the adversarial fault family. Each one sends
// a syntactically well-formed frame that the honest side's
// verification must reject with a typed error.
const (
	// ByzInflate answers the peer's claim with a forged chain: the
	// embedded CDR's volume is inflated (breaking the peer's
	// signature) and the final PoC's X is bumped after signing.
	ByzInflate = "inflate"
	// ByzReplay answers with a genuine, correctly signed PoC from an
	// earlier negotiation (Stale). It passes stateless verification —
	// the rejection must come from the protocol's CDA binding
	// (ErrStaleProof) or a stateful verifier's replay set.
	ByzReplay = "replay"
	// ByzTamper answers with a correctly built CDA whose signed bytes
	// are then flipped, so signature verification fails.
	ByzTamper = "tamper"
)

// Byzantine is a dishonest negotiation responder. It answers the
// honest initiator's opening CDR with the forgery its Mode prescribes,
// then stops — it does not wait for a verdict (the honest side fails
// closed and hangs up).
type Byzantine struct {
	Mode string
	Role poc.Role
	Plan poc.Plan
	Keys *poc.KeyPair
	RNG  *sim.RNG

	// Volume is the byzantine party's own (inflated) claim.
	Volume uint64
	// Stale is the old proof ByzReplay sends.
	Stale *poc.PoC
}

// Run plays one adversarial exchange as the responder over conn: it
// reads the opening frame, answers it and writes the answer. It
// returns every frame it sent, so test batteries can assert that none
// of them ever verifies as a PoC.
//
//tlcvet:allow unreached — test support: the tests of protocol and session play byzantine peers over a conn with it
func (b *Byzantine) Run(conn io.ReadWriter) (sent [][]byte, err error) {
	frame, err := ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("byzantine: reading opening claim: %w", err)
	}
	if sent, err = b.Respond(frame); err != nil {
		return nil, err
	}
	for _, data := range sent {
		if err := WriteFrame(conn, data); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// Respond answers the opening frame with the forgery Mode prescribes
// and returns the frames to send, in order. It does no I/O, so a
// driver can run the exchange on one goroutine.
func (b *Byzantine) Respond(opening []byte) (sent [][]byte, err error) {
	if len(opening) == 0 {
		return nil, errors.New("byzantine: empty opening frame")
	}
	if opening[0] != 1 {
		return nil, fmt.Errorf("byzantine: expected opening CDR, got kind %d", opening[0])
	}
	var cdr poc.CDR
	if err := cdr.UnmarshalBinary(opening); err != nil {
		return nil, fmt.Errorf("byzantine: opening CDR: %w", err)
	}

	switch b.Mode {
	case ByzReplay:
		if b.Stale == nil {
			return nil, errors.New("byzantine: replay mode needs a Stale proof")
		}
		data, err := b.Stale.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return [][]byte{data}, nil

	case ByzTamper:
		cda, err := poc.BuildCDA(b.Plan, b.Role, cdr.Seq, b.claim(&cdr), &cdr, b.RNG, b.Keys.Private)
		if err != nil {
			return nil, err
		}
		data, err := cda.MarshalBinary()
		if err != nil {
			return nil, err
		}
		// Flip one bit inside the signed body (past the kind byte,
		// before the trailing signature).
		data[1+len(data)/3] ^= 0x40
		return [][]byte{data}, nil

	case ByzInflate:
		// Inflate the peer's claim inside the chain: the copy's volume
		// no longer matches the peer's signature, and the finishing
		// signature is made with the wrong key on top. Bump X after
		// signing for good measure. Verification must reject every
		// layer of this.
		forged := cdr
		forged.Volume = forged.Volume*3 + 1<<22
		cda, err := poc.BuildCDA(b.Plan, b.Role, forged.Seq, b.claim(&forged), &forged, b.RNG, b.Keys.Private)
		if err != nil {
			return nil, err
		}
		proof, err := poc.BuildPoC(cda, b.Keys.Private)
		if err != nil {
			return nil, err
		}
		proof.X = proof.X*2 + 1<<20
		data, err := proof.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return [][]byte{data}, nil

	default:
		return nil, fmt.Errorf("byzantine: unknown mode %q", b.Mode)
	}
}

// claim picks the byzantine party's own claimed volume: the
// configured Volume, or double the peer's claim.
func (b *Byzantine) claim(peer *poc.CDR) uint64 {
	if b.Volume > 0 {
		return b.Volume
	}
	return peer.Volume * 2
}
