// Package protocol runs TLC's negotiation (Figure 7) as an
// application-layer protocol: the signed CDR/CDA/PoC messages of
// internal/poc, exchanged in checksummed frames, drive the Algorithm 1
// game of internal/core. Machine is the one implementation of that
// exchange. RunPair pumps two machines in memory (simulation),
// Byzantine.Play runs one against a dishonest peer in memory, and
// internal/session multiplexes machines over shared connections: the
// TLCMUX1 wire, the only one cmd/tlcd and the root package's
// Negotiator speak.
package protocol

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// MaxFrame bounds a message frame; PoCs are well under 4 KiB even
// with RSA-3072.
const MaxFrame = 64 * 1024

// FrameHeaderSize is a frame's header: a length word and the body's
// CRC-32C, each a big-endian u32. A body of up to MaxFrame bytes needs
// the word's low lenBits bits; the 15 above them carry lenCheck of that
// length, so a damaged length fails at the header instead of leaving
// the reader waiting for a body that never comes. The ledger frames
// its records in a [len][crc32c] shape too, but little-endian and with
// a bare length.
const FrameHeaderSize = 8

// lenBits is the width of a header's length field.
const lenBits = 17

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// lenCheck is the CRC-15 (CAN's polynomial, 0x4599) of a body length's
// lenBits bits. It detects every flip of one or two bits in the length
// word; a table-driven CRC would move its input to the heap.
func lenCheck(n uint32) uint32 {
	var c uint32
	for i := lenBits - 1; i >= 0; i-- {
		if (n>>i^c>>14)&1 != 0 {
			c = c<<1 ^ 0x4599
		} else {
			c <<= 1
		}
	}
	return c & 0x7fff
}

// frameHeader returns the header of the frame that carries body.
func frameHeader(body []byte) (hdr [FrameHeaderSize]byte) {
	n := uint32(len(body))
	binary.BigEndian.PutUint32(hdr[:4], lenCheck(n)<<lenBits|n)
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	return hdr
}

// WriteFrame writes one frame: [length word u32][crc32c u32][data].
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("protocol: frame of %d bytes exceeds max %d", len(data), MaxFrame)
	}
	hdr := frameHeader(data)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// PutFrameHeader fills the first FrameHeaderSize bytes of frame with
// the header of the body after them, which must be at most MaxFrame
// bytes, so a caller can reserve the header, append the body in place
// and frame it without a copy.
func PutFrameHeader(frame []byte) {
	hdr := frameHeader(frame[FrameHeaderSize:])
	copy(frame, hdr[:])
}

// ReadFrame reads one frame into a fresh buffer the caller may keep;
// FrameReader.ReadFrame documents the semantics.
func ReadFrame(r io.Reader) ([]byte, error) {
	return NewFrameReader(r).ReadFrame()
}

// Errors surfaced by a negotiation run.
var (
	ErrNoConvergence = errors.New("protocol: negotiation exhausted max rounds")
	ErrBadMessage    = errors.New("protocol: malformed or unexpected message")
	ErrBadPeer       = errors.New("protocol: peer message failed validation")
	// ErrFrameTruncated marks a stream that died mid-frame; the
	// connection is unusable (the framing is desynchronised).
	ErrFrameTruncated = errors.New("protocol: frame truncated")
	// ErrFrameCorrupt marks a frame whose body fails its checksum: the
	// transport damaged it, so it is not the peer's message, and the
	// framing is suspect. A retry on a fresh conn may clear it.
	ErrFrameCorrupt = errors.New("protocol: frame checksum mismatch")
	// ErrStaleProof marks a syntactically valid, correctly signed PoC
	// that does not embed the CDA this party sent in this exchange — a
	// replayed proof from an earlier negotiation.
	ErrStaleProof = errors.New("protocol: stale proof")
)

// Party is one side of the negotiation.
type Party struct {
	Role    poc.Role
	Plan    poc.Plan
	Keys    *poc.KeyPair
	PeerKey *rsa.PublicKey

	// Strategy and View drive the Algorithm 1 game exactly as in
	// internal/core.
	Strategy core.Strategy
	View     core.View

	// RNG drives randomized strategies and nonce generation; nil uses
	// a zero-seeded stream. Nonces are then deterministic, which suits
	// simulation only: a live negotiation runs on internal/session,
	// which draws them from crypto/rand.
	RNG *sim.RNG

	// MaxRounds caps claims sent by this party.
	MaxRounds int
}

// Result is the settled negotiation.
type Result struct {
	PoC    *poc.PoC
	Proof  []byte // PoC serialized, as the machine built or received it
	X      uint64
	Rounds int // claims this party sent or answered
}

func (p *Party) rng() *sim.RNG {
	if p.RNG == nil {
		p.RNG = sim.NewRNG(0)
	}
	return p.RNG
}

// Config is the configuration the party's machines run with. It keeps
// the final proof, which record decodes and a live receipt carries.
func (p *Party) Config() Config {
	cfg := Config{
		Role: p.Role, Plan: p.Plan, Strategy: p.Strategy, View: p.View,
		MaxRounds: p.MaxRounds, KeepProof: true,
	}
	if p.Keys != nil {
		cfg.Key = p.Keys.Private
	}
	return cfg
}

// machine builds the party's negotiation machine and the environment
// it advances in.
func (p *Party) machine() (*Machine, *Env, error) {
	cfg := p.Config()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if p.PeerKey == nil {
		return nil, nil, errors.New("protocol: Party.PeerKey is required")
	}
	m := new(Machine)
	m.Init(&cfg, p.PeerKey)
	return m, &Env{RNG: p.rng(), Nonce: p.rng()}, nil
}

// record counts one side's finished negotiation in Metrics, settled
// with its rounds or failed and classified by cause, and returns the
// side's result.
func record(m *Machine, err error) (*Result, error) {
	var res *Result
	if err == nil {
		res = &Result{PoC: new(poc.PoC), Proof: m.proof, X: m.x, Rounds: m.rounds}
		// The machine built or verified these bytes; they always decode.
		err = res.PoC.UnmarshalBinary(m.proof)
	}
	if err != nil {
		CountFailure(err)
		return nil, err
	}
	Metrics.NegotiationsSettled.Inc()
	Metrics.RoundsTotal.Add(uint64(res.Rounds))
	return res, nil
}

// RunPair negotiates between two parties in memory and returns their
// results; it is the simulator's entry. Algorithm 1 is strictly
// turn-based, so the pump carries the one message in flight from the
// side that emitted it to the other. On failure it returns the error
// of the side that failed, which Metrics classifies; the peer counts
// as failed, unclassified.
func RunPair(initiator, responder *Party) (*Result, *Result, error) {
	Metrics.NegotiationsStarted.Add(2)
	sides := [2]*Party{initiator, responder}
	var (
		ms   [2]*Machine
		envs [2]*Env
		err  error
		at   int // the side acting; on failure, the side that failed
	)
	for at = range sides {
		if ms[at], envs[at], err = sides[at].machine(); err != nil {
			break
		}
	}
	if err == nil {
		var msg []byte
		emit := func(b []byte) error { msg = b; return nil }
		at = 0
		err = ms[at].Start(envs[at], emit)
		for err == nil && msg != nil {
			in := msg
			msg, at = nil, 1-at
			_, err = ms[at].Handle(in, envs[at], emit)
		}
	}
	if err != nil {
		Metrics.NegotiationsFailed.Inc() // the peer, left mid-exchange
		_, err = record(nil, err)
		return nil, nil, fmt.Errorf("%s: %w", [2]string{"initiator", "responder"}[at], err)
	}
	ri, _ := record(ms[0], nil)
	rr, _ := record(ms[1], nil)
	return ri, rr, nil
}
