package session

import (
	"crypto/rsa"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
	"sync"

	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// ClientConfig drives a mux load-generation client: Sessions
// negotiations multiplexed over the given pre-dialed connections.
// The caller owns the conns (dialing, deadlines, closing) — this
// package reads no clock and opens no sockets.
type ClientConfig struct {
	// Config is the edge-side negotiation configuration; the client
	// initiates every session.
	protocol.Config
	// Sessions is the number of negotiations to run, assigned to
	// connections round-robin.
	Sessions int
	// Conns carries the sessions; each must be freshly connected to a
	// mux-capable tlcd.
	Conns []io.ReadWriter
	// Seed derives the client's deterministic strategy RNG streams.
	Seed int64
	// Nonce overrides nonce randomness (nil = crypto/rand).
	Nonce io.Reader
	// Stopwatch (optional) timestamps session open/settle for latency
	// measurement, in seconds from an arbitrary origin.
	Stopwatch func() float64
	// OpenFirst holds response processing until every session's
	// opening claim has been queued AND the server has answered each
	// one (the server responds exactly once per inbound frame, so one
	// buffered response per opened session means every admitted
	// session is resident server-side simultaneously). This is the
	// thundering-herd shape the engine is sized for, and it makes the
	// server's peak-active count deterministic: admitted == peak.
	// When false, sessions settle while later ones are still opening
	// (steady-state shape).
	OpenFirst bool
	// Forge tampers the final PoC signature of the first Forge
	// sessions; a correct server must answer TypeReject, never
	// TypeDone. Forged sessions count in ForgedRejected/Verified, not
	// Settled/Failed.
	Forge int
}

// ClientResult aggregates per-session outcomes.
type ClientResult struct {
	Settled  int
	Rejected int // admission-control rejections (RejectOverload)
	Failed   int
	// Forged-PoC accounting: Sent were emitted, Rejected were refused
	// by the server (correct), Verified were acknowledged as settled
	// (a charging-integrity bug — must be zero).
	ForgedSent     int
	ForgedRejected int
	ForgedVerified int
	// Latencies holds one open→settle duration in seconds per settled
	// session (only when a Stopwatch was injected).
	Latencies []float64
}

// clientSession is one initiator-side negotiation.
type clientSession struct {
	sid      uint64
	m        protocol.Machine
	forged   bool
	resolved bool
	openedAt float64
}

// clientConn is one mux connection's client-side state. The table and
// counters are touched by the opener only up to the gate and by the
// reader goroutine after it; the table mutex publishes each session's
// machine state from opener to reader.
type clientConn struct {
	rw        io.ReadWriter
	serverKey *rsa.PublicKey
	out       *outQueue
	env       protocol.Env

	mu       sync.Mutex
	table    map[uint64]*clientSession
	assigned int
	opened   int

	// reader-goroutine-local outcome counters
	res ClientResult
}

// RunClient executes the configured load against a mux server and
// blocks until every session resolves or its connection dies. It
// leaves no goroutines behind.
//
//tlcvet:allow unreached — test support: the tests of session and cmd/tlcd load a mux server with it
func RunClient(cc ClientConfig) (*ClientResult, error) {
	if err := cc.Config.Validate(); err != nil {
		return nil, err
	}
	if cc.Sessions <= 0 || len(cc.Conns) == 0 {
		return nil, fmt.Errorf("session: client needs Sessions > 0 and at least one conn")
	}
	ownDER, err := x509.MarshalPKIXPublicKey(&cc.Key.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("session: marshal own key: %w", err)
	}

	// Handshake every connection: Hello out, server key back.
	base := sim.NewRNG(cc.Seed)
	conns := make([]*clientConn, len(cc.Conns))
	for i, rw := range cc.Conns {
		if err := protocol.WriteFrame(rw, Hello(ownDER)); err != nil {
			return nil, fmt.Errorf("session: hello on conn %d: %w", i, err)
		}
		keyFrame, err := protocol.ReadFrame(rw)
		if err != nil {
			return nil, fmt.Errorf("session: key frame on conn %d: %w", i, err)
		}
		parsed, err := x509.ParsePKIXPublicKey(keyFrame)
		if err != nil {
			return nil, fmt.Errorf("session: server key on conn %d: %w", i, err)
		}
		serverKey, ok := parsed.(*rsa.PublicKey)
		if !ok {
			return nil, fmt.Errorf("session: server key on conn %d is %T, want RSA", i, parsed)
		}
		conns[i] = &clientConn{
			rw:        rw,
			serverKey: serverKey,
			out:       newOutQueue(),
			env:       protocol.Env{RNG: base.Fork("conn" + strconv.Itoa(i)), Nonce: cc.Nonce},
			table:     make(map[uint64]*clientSession),
		}
	}
	// Round-robin assignment is deterministic, so each conn's session
	// count is known before any reader starts.
	for i := 0; i < cc.Sessions; i++ {
		conns[i%len(conns)].assigned++
	}

	gate := make(chan struct{})
	if !cc.OpenFirst {
		close(gate)
	}
	// herd holds every OpenFirst reader until all of them have buffered
	// their conn's responses, so no session advances while another
	// conn's are still being admitted.
	var herd sync.WaitGroup
	if cc.OpenFirst {
		herd.Add(len(conns))
	}
	var wg sync.WaitGroup
	for _, cn := range conns {
		wg.Add(2)
		go func(cn *clientConn) {
			defer wg.Done()
			cn.writeLoop()
		}(cn)
		go func(cn *clientConn) {
			defer wg.Done()
			<-gate
			cn.readLoop(&cc, &herd)
		}(cn)
	}

	// Open every session: sign the opening claim, publish the machine
	// through the table mutex, then queue the frame. Publishing before
	// the push is the ordering that guarantees the reader finds the
	// session when the server's response arrives.
	openEnv := protocol.Env{RNG: base.Fork("opener"), Nonce: cc.Nonce}
	openFailed := 0
	for i := 0; i < cc.Sessions; i++ {
		cn := conns[i%len(conns)]
		s := &clientSession{sid: uint64(i) + 1, forged: i < cc.Forge}
		s.m.Init(&cc.Config, cn.serverKey)
		if cc.Stopwatch != nil {
			s.openedAt = cc.Stopwatch()
		}
		var opening []byte
		if err := s.m.Start(&openEnv, func(msg []byte) error {
			opening = append(opening, msg...)
			return nil
		}); err != nil {
			openFailed++
			cn.mu.Lock()
			cn.assigned-- // never pushed; the reader must not wait for it
			cn.mu.Unlock()
			continue
		}
		cn.mu.Lock()
		cn.table[s.sid] = s
		cn.opened++
		cn.mu.Unlock()
		out := bufPool.Get().(*[]byte)
		*out = AppendMux((*out)[:0], TypeData, s.sid, opening)
		cn.out.push(out)
	}
	if cc.OpenFirst {
		close(gate)
	}
	wg.Wait()

	total := &ClientResult{Failed: openFailed}
	for _, cn := range conns {
		total.Settled += cn.res.Settled
		total.Rejected += cn.res.Rejected
		total.Failed += cn.res.Failed
		total.ForgedSent += cn.res.ForgedSent
		total.ForgedRejected += cn.res.ForgedRejected
		total.ForgedVerified += cn.res.ForgedVerified
		total.Latencies = append(total.Latencies, cn.res.Latencies...)
	}
	return total, nil
}

// writeLoop mirrors the server's: single writer, batched flushes.
func (cn *clientConn) writeLoop() {
	mc := &muxConn{out: cn.out}
	mc.writeLoop(cn.rw)
}

// resolve marks a session finished; the reader exits once every
// assigned session resolved.
func (cn *clientConn) resolve(s *clientSession) {
	s.resolved = true
	cn.mu.Lock()
	cn.assigned--
	cn.mu.Unlock()
}

// remaining is the count of assigned-but-unresolved sessions.
func (cn *clientConn) remaining() int {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.assigned
}

// failRemaining resolves every outstanding session as failed after
// the connection died.
func (cn *clientConn) failRemaining() {
	cn.mu.Lock()
	cn.res.Failed += cn.assigned
	cn.assigned = 0
	cn.mu.Unlock()
}

// emit wraps a machine's outbound message for s, applying PoC forgery
// when configured.
func (cn *clientConn) emit(cc *ClientConfig, s *clientSession) func([]byte) error {
	return func(msg []byte) error {
		if s.forged && len(msg) > 0 && msg[0] == 3 {
			// Flip the tail of the PoC — inside the outer signature —
			// so the server's Algorithm 2 verification must fail.
			msg[len(msg)-1] ^= 0xff
			cn.res.ForgedSent++
		}
		out := bufPool.Get().(*[]byte)
		*out = AppendMux((*out)[:0], TypeData, s.sid, msg)
		cn.out.push(out)
		return nil
	}
}

// readLoop processes server frames until every assigned session
// resolves or the connection dies, then shuts the writer down.
func (cn *clientConn) readLoop(cc *ClientConfig, herd *sync.WaitGroup) {
	fr := protocol.NewFrameReader(cn.rw)

	// OpenFirst phase: buffer one response per opened session, and
	// wait for every other conn's reader to do the same, before
	// advancing any negotiation. A read error here falls through to
	// the main loop, which fails whatever never resolved.
	var buffered [][]byte
	if cc.OpenFirst {
		for len(buffered) < cn.opened {
			frame, err := fr.ReadFrame()
			if err != nil {
				break
			}
			buffered = append(buffered, append([]byte(nil), frame...))
		}
		herd.Done()
		herd.Wait()
	}

	for cn.remaining() > 0 {
		var frame []byte
		if len(buffered) > 0 {
			frame = buffered[0]
			buffered = buffered[1:]
		} else {
			var err error
			frame, err = fr.ReadFrame()
			if err != nil {
				// Connection died: every unresolved session fails.
				cn.failRemaining()
				break
			}
		}
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil {
			cn.failRemaining()
			break
		}
		cn.mu.Lock()
		s := cn.table[sid]
		cn.mu.Unlock()
		if s == nil || s.resolved {
			continue
		}
		switch typ {
		case TypeReject:
			code := byte(0)
			if len(payload) > 0 {
				code = payload[0]
			}
			switch {
			case s.forged && code == RejectFailed:
				cn.res.ForgedRejected++ // the server caught the forgery
			case code == RejectOverload:
				cn.res.Rejected++
			default:
				cn.res.Failed++
			}
			cn.resolve(s)

		case TypeDone:
			switch {
			case s.forged:
				// The server settled a tampered PoC: charging
				// integrity is broken. Surfaced, never expected.
				cn.res.ForgedVerified++
			case s.m.Done() && s.m.Finisher() && len(payload) == 8 &&
				binary.BigEndian.Uint64(payload) == s.m.X():
				cn.settle(cc, s)
			default:
				cn.res.Failed++
			}
			cn.resolve(s)

		case TypeData:
			finished, err := s.m.Handle(payload, &cn.env, cn.emit(cc, s))
			if err != nil {
				cn.res.Failed++
				cn.resolve(s)
				out := bufPool.Get().(*[]byte)
				*out = AppendMux((*out)[:0], TypeReject, s.sid, []byte{RejectFailed})
				cn.out.push(out)
				continue
			}
			if finished && !s.m.Finisher() {
				// Server sent the final PoC; settled without an ack.
				cn.settle(cc, s)
				cn.resolve(s)
			}
			// finished && Finisher(): we sent the PoC (possibly
			// forged); resolution arrives as TypeDone or TypeReject.
		}
	}
	cn.out.close()
}

func (cn *clientConn) settle(cc *ClientConfig, s *clientSession) {
	cn.res.Settled++
	if cc.Stopwatch != nil {
		cn.res.Latencies = append(cn.res.Latencies, cc.Stopwatch()-s.openedAt)
	}
}
