// Package session is tlcd's sharded session engine: the live-path
// machinery that lets one daemon terminate 10⁵–10⁶ concurrent
// charging negotiations.
//
// Three layers (DESIGN.md "Session engine"):
//
//   - a mux framing layer over internal/protocol's length-prefixed
//     frames, so one TCP connection carries thousands of interleaved
//     negotiations and key exchange happens once per connection, not
//     once per charging cycle;
//   - a session table split into power-of-two shards (per-shard
//     mutex, fingerprint-hashed session ids) with admission control:
//     a bounded per-shard pending queue that rejects new work with a
//     typed overload frame instead of growing goroutines without
//     bound;
//   - a PoC crypto pipeline: a small worker pool drains the per-shard
//     queues in batches, so RSA sign/verify work amortises scheduling
//     across sessions; the peer key is parsed once per connection.
//
// Negotiations run as event-driven state machines (protocol.Machine,
// the one every negotiation path drives), not goroutine-per-session: a
// parked session is a few hundred bytes of table state, which is what
// makes the million-session table fit. TLCMUX1 is the only wire: a
// conn opens with a hello (see Magic), and the client initiates every
// session on it. RunClient is that client, and tlcd's edge runs it: one
// goroutine per conn writes and reads for a per-conn state that does
// no I/O itself.
//
// Nothing in this package reads a wall clock (tlcvet's simtime rule);
// callers in cmd/ inject a Stopwatch for latency observation.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic opens a mux connection: the client's first frame is Magic
// followed by its PKIX public key DER. The engine refuses a first
// frame without the prefix (ErrNotHello) and writes nothing to it.
var Magic = []byte("TLCMUX1")

// Mux frame types. A mux frame rides inside one protocol frame as
// [type:1][session id:8 BE][payload].
const (
	// TypeData carries one negotiation message (CDR/CDA/PoC, kind
	// byte first) for the session.
	TypeData byte = 1
	// TypeReject aborts the session; payload is [code:1][utf-8 detail].
	TypeReject byte = 2
	// TypeDone acknowledges settlement to the party that sent the
	// final PoC; payload is the settled volume X as 8 bytes BE.
	TypeDone byte = 3
)

// Reject codes carried by TypeReject frames.
const (
	// RejectOverload: admission control refused the session (shard
	// table or pending queue full). The client may retry later.
	RejectOverload byte = 1
	// RejectBadMessage: the frame could not be parsed as a
	// negotiation message.
	RejectBadMessage byte = 2
	// RejectFailed: the negotiation failed validation (bad signature,
	// stale proof, plan mismatch, round exhaustion).
	RejectFailed byte = 3
	// RejectShutdown: the engine is draining.
	RejectShutdown byte = 4
)

// muxHeaderSize is the mux prefix: type byte plus session id.
const muxHeaderSize = 1 + 8

// Errors surfaced by the engine and the mux codec.
var (
	// ErrOverload is the typed admission-control rejection: the
	// target shard's session table or pending queue is full. Clients
	// see it via a TypeReject/RejectOverload frame.
	ErrOverload = errors.New("session: shard overloaded")
	// ErrMuxFrame marks a frame too short or otherwise unparseable as
	// a mux frame; the connection's framing is suspect and the caller
	// closes it.
	ErrMuxFrame = errors.New("session: malformed mux frame")
	// ErrEngineStopped is returned for work arriving after Stop.
	ErrEngineStopped = errors.New("session: engine stopped")
	// ErrNotHello is ServeConn's refusal of a conn whose first frame
	// is not a TLCMUX1 hello, such as a bare PKIX key.
	ErrNotHello = errors.New("session: first frame is not a TLCMUX1 hello")
)

// AppendMux appends a mux frame body ([type][sid][payload]) to dst
// and returns the extended slice; pass it to protocol.WriteFrame.
func AppendMux(dst []byte, typ byte, sid uint64, payload []byte) []byte {
	dst = append(dst, typ)
	var idb [8]byte
	binary.BigEndian.PutUint64(idb[:], sid)
	dst = append(dst, idb[:]...)
	return append(dst, payload...)
}

// DecodeMux splits a mux frame body into its type, session id and
// payload. The payload aliases frame. It never panics on adversarial
// input (FuzzDecodeMux).
func DecodeMux(frame []byte) (typ byte, sid uint64, payload []byte, err error) {
	if len(frame) < muxHeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrMuxFrame, len(frame), muxHeaderSize)
	}
	typ = frame[0]
	switch typ {
	case TypeData, TypeReject, TypeDone:
	default:
		return 0, 0, nil, fmt.Errorf("%w: unknown type %d", ErrMuxFrame, typ)
	}
	sid = binary.BigEndian.Uint64(frame[1:9])
	return typ, sid, frame[muxHeaderSize:], nil
}

// IsHello reports whether a first frame opens a mux connection, and
// if so returns the PKIX DER that follows the magic.
func IsHello(frame []byte) (der []byte, ok bool) {
	if len(frame) < len(Magic) {
		return nil, false
	}
	for i := range Magic {
		if frame[i] != Magic[i] {
			return nil, false
		}
	}
	return frame[len(Magic):], true
}

// Hello builds the client's opening frame: Magic followed by the
// client's PKIX public key DER.
func Hello(der []byte) []byte {
	out := make([]byte, 0, len(Magic)+len(der))
	out = append(out, Magic...)
	return append(out, der...)
}
