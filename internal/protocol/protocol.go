// Package protocol runs TLC's negotiation (Figure 7) as an
// application-layer protocol: the signed CDR/CDA/PoC messages of
// internal/poc, exchanged with length-prefixed framing, drive the
// Algorithm 1 game of internal/core. Machine is the one implementation
// of that exchange. Party.Run drives a machine over any stream
// transport (the root package's Negotiator), RunPair pumps two
// machines in memory (simulation), and internal/session multiplexes
// machines over shared connections: the TLCMUX1 wire cmd/tlcd speaks.
package protocol

import (
	"crypto/rsa"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// MaxFrame bounds a message frame; PoCs are well under 4 KiB even
// with RSA-3072.
const MaxFrame = 64 * 1024

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("protocol: frame of %d bytes exceeds max %d", len(data), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// ReadFrame reads one length-prefixed message into a fresh buffer the
// caller may keep; FrameReader.ReadFrame documents the semantics.
func ReadFrame(r io.Reader) ([]byte, error) {
	return NewFrameReader(r).ReadFrame()
}

// Errors surfaced by a negotiation run.
var (
	ErrNoConvergence = errors.New("protocol: negotiation exhausted max rounds")
	ErrBadMessage    = errors.New("protocol: malformed or unexpected message")
	ErrBadPeer       = errors.New("protocol: peer message failed validation")
	// ErrFrameTruncated marks a stream that died mid-frame; the
	// connection is unusable (the framing is desynchronised) and Run
	// closes it.
	ErrFrameTruncated = errors.New("protocol: frame truncated")
	// ErrStaleProof marks a syntactically valid, correctly signed PoC
	// that does not embed the CDA this party sent in this exchange — a
	// replayed proof from an earlier negotiation.
	ErrStaleProof = errors.New("protocol: stale proof")
)

// closeConn tears the transport down after a failure that leaves it
// unusable: a half-read stream can never resynchronise, so leaving it
// open would wedge the peer, and a peer replaying a stale proof gets no
// further exchange on the same conn.
func closeConn(conn io.ReadWriter) {
	if c, ok := conn.(io.Closer); ok {
		_ = c.Close() // already failing; the close result adds nothing
	}
}

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

	// RNG drives randomized strategies and nonce generation in
	// deterministic runs; nil uses a zero-seeded stream (nonces are
	// then deterministic — fine for simulation, not for production;
	// pass a crypto/rand-backed reader via NonceSource for that).
	RNG *sim.RNG
	// NonceSource overrides the nonce randomness (defaults to RNG).
	NonceSource io.Reader

	// MaxRounds caps claims sent by this party.
	MaxRounds int
	// Timeout applies per message exchange when the transport is a
	// net.Conn.
	Timeout time.Duration
}

// Result is the settled negotiation.
type Result struct {
	PoC    *poc.PoC
	X      uint64
	Rounds int // claims this party sent or answered
}

func (p *Party) rng() *sim.RNG {
	if p.RNG == nil {
		p.RNG = sim.NewRNG(0)
	}
	return p.RNG
}

func (p *Party) nonceSource() io.Reader {
	if p.NonceSource != nil {
		return p.NonceSource
	}
	return p.rng()
}

func (p *Party) deadline(conn io.ReadWriter) {
	if p.Timeout <= 0 {
		return
	}
	if c, ok := conn.(net.Conn); ok {
		//tlcvet:allow simtime — real network I/O deadline on a live conn, not simulated control flow
		_ = c.SetDeadline(time.Now().Add(p.Timeout))
	}
}

// machine builds the party's negotiation machine and the environment
// it advances in.
func (p *Party) machine() (*Machine, *Env, error) {
	cfg := &Config{
		Role: p.Role, Plan: p.Plan, Strategy: p.Strategy, View: p.View,
		MaxRounds: p.MaxRounds, KeepProof: true, // record decodes the kept proof
	}
	if p.Keys != nil {
		cfg.Key = p.Keys.Private
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if p.PeerKey == nil {
		return nil, nil, errors.New("protocol: Party.PeerKey is required")
	}
	m := new(Machine)
	m.Init(cfg, p.PeerKey)
	return m, &Env{RNG: p.rng(), Nonce: p.nonceSource()}, nil
}

// record counts one side's finished negotiation in Metrics, settled
// with its rounds or failed and classified by cause, and returns the
// side's result.
func record(m *Machine, err error) (*Result, error) {
	var res *Result
	if err == nil {
		res = &Result{PoC: new(poc.PoC), X: m.x, Rounds: m.rounds}
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

// Run executes the negotiation over the transport: it reads a frame,
// hands it to the party's Machine and writes what the machine emits,
// until the machine settles or fails. The initiator sends the first
// CDR; the responder waits for it. On success both sides hold the same
// doubly signed PoC.
func (p *Party) Run(conn io.ReadWriter, initiate bool) (*Result, error) {
	Metrics.NegotiationsStarted.Inc()
	m, env, err := p.machine()
	if err != nil {
		return record(nil, err)
	}
	emit := func(msg []byte) error {
		p.deadline(conn)
		return WriteFrame(conn, msg)
	}
	if initiate {
		err = m.Start(env, emit)
	}
	fr := NewFrameReader(conn)
	for err == nil && !m.Done() {
		p.deadline(conn)
		var frame []byte
		if frame, err = fr.ReadFrame(); err == nil {
			_, err = m.Handle(frame, env, emit)
		}
	}
	if errors.Is(err, ErrFrameTruncated) || errors.Is(err, ErrStaleProof) {
		closeConn(conn)
	}
	return record(m, err)
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
