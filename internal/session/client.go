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

// ClientConfig drives a mux client: Sessions negotiations multiplexed
// over the given pre-dialed connections. tlcd's edge settles its cycle
// as one session on one conn; tests load a server with thousands. The
// caller owns the conns (dialing, deadlines, closing) — this package
// reads no clock and opens no sockets.
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
	// ServerKey, when set, is the server's key as exchanged at setup
	// (§5.3.1): a conn whose key frame carries another key fails the
	// run with protocol.ErrBadPeer before any session opens on it, so
	// the client signs nothing for an impostor. The root package's
	// Negotiator sets it; tlcd's edge takes the key its operator sends.
	ServerKey *rsa.PublicKey
	// Seed derives the client's deterministic strategy RNG streams.
	Seed int64
	// OpenFirst holds response processing until every session's
	// opening claim has been sent AND the server has answered each
	// one (the server responds exactly once per inbound frame, so one
	// buffered response per opened session means every admitted
	// session is resident server-side simultaneously). Each conn waits
	// at that barrier for every other. This is the thundering-herd
	// shape the engine is sized for, and it makes the server's
	// peak-active count deterministic: admitted == peak. When false,
	// a conn's sessions settle as soon as its own claims are sent,
	// while other conns are still opening (steady-state shape).
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
	// Receipts holds one entry per settled session, conn by conn.
	Receipts []Receipt
	// Cause is why the first session that did not settle ended (conn
	// by conn), or nil. It keeps protocol.Transient's retry contract:
	// a dead conn, a malformed mux frame and an overload or shutdown
	// reject are transient; a RejectFailed or RejectBadMessage reject
	// and the client machine's own verdicts (ErrBadPeer, ErrStaleProof,
	// ErrNoConvergence) are not.
	Cause error
	// Forged-PoC accounting: Sent were emitted, Rejected were refused
	// by the server (correct), Verified were acknowledged as settled
	// (a charging-integrity bug — must be zero).
	ForgedSent     int
	ForgedRejected int
	ForgedVerified int
}

// Receipt is one settled session as the client saw it: the agreed
// volume, the rounds it took and the serialized PoC (nil unless
// Config.KeepProof).
type Receipt struct {
	X      uint64
	Rounds int
	Proof  []byte
}

// clientSession is one initiator-side negotiation.
type clientSession struct {
	m      protocol.Machine
	forged bool
}

// clientConn is one mux conn's client state. It does no I/O: open
// signs a session's opening claim and handle answers one inbound mux
// frame, each appending the frames this side owes to out, which the
// conn's loop writes. A session leaves the table once it resolves, so
// the conn is done when the table is empty. One goroutine owns it.
type clientConn struct {
	cfg       *ClientConfig
	serverKey *rsa.PublicKey
	env       protocol.Env
	table     map[uint64]*clientSession
	out       []byte
	res       ClientResult
}

func newClientConn(cc *ClientConfig, serverKey *rsa.PublicKey, rng *sim.RNG) *clientConn {
	return &clientConn{
		cfg:       cc,
		serverKey: serverKey,
		env:       protocol.Env{RNG: rng},
		table:     make(map[uint64]*clientSession),
	}
}

// RunClient runs the configured sessions against a mux server and
// blocks until every session resolves or its connection dies. Each
// conn runs on one goroutine, and RunClient leaves none behind.
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
		serverKey, err := parsePeerKey(keyFrame)
		if err != nil {
			return nil, fmt.Errorf("session: conn %d: %w", i, err)
		}
		if cc.ServerKey != nil && !cc.ServerKey.Equal(serverKey) {
			return nil, fmt.Errorf("session: conn %d: %w: the key frame does not carry the pinned server key", i, protocol.ErrBadPeer)
		}
		conns[i] = newClientConn(&cc, serverKey, base.Fork("conn"+strconv.Itoa(i)))
	}

	var herd *sync.WaitGroup
	if cc.OpenFirst {
		herd = new(sync.WaitGroup)
		herd.Add(len(conns))
	}
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for i, cn := range conns {
		go func() {
			defer wg.Done()
			cn.loop(cc.Conns[i], i, len(conns), herd)
		}()
	}
	wg.Wait()

	total := &ClientResult{}
	for _, cn := range conns {
		if total.Cause == nil {
			total.Cause = cn.res.Cause
		}
		total.Receipts = append(total.Receipts, cn.res.Receipts...)
		total.Settled += cn.res.Settled
		total.Rejected += cn.res.Rejected
		total.Failed += cn.res.Failed
		total.ForgedSent += cn.res.ForgedSent
		total.ForgedRejected += cn.res.ForgedRejected
		total.ForgedVerified += cn.res.ForgedVerified
	}
	return total, nil
}

// loop drives conn k of n over rw: it opens sessions k, k+n, … (sid =
// index+1), then feeds each frame it reads to the state until every
// session resolves or the conn dies, writing what the state owes in
// one call before each blocking read. With herd set, the conn first
// reads one answer per opened session and waits for every other conn
// to do the same before it handles any.
func (cn *clientConn) loop(rw io.ReadWriter, k, n int, herd *sync.WaitGroup) {
	fr := protocol.NewFrameReader(rw)
	// write writes what the state owes; next writes it and reads the
	// server's next frame. After the conn's first error both do
	// nothing, and the sessions still open fail of that error.
	var err error
	write := func() {
		if err == nil && len(cn.out) > 0 {
			_, err = rw.Write(cn.out)
		}
		cn.out = cn.out[:0]
	}
	next := func() (frame []byte) {
		write()
		if err == nil {
			frame, err = fr.ReadFrame()
		}
		return frame
	}

	for i := k; i < cn.cfg.Sessions; i += n {
		cn.open(uint64(i)+1, i < cn.cfg.Forge)
	}
	if herd != nil {
		var answers [][]byte
		for len(answers) < len(cn.table) {
			frame := next()
			if err != nil {
				break
			}
			answers = append(answers, append([]byte(nil), frame...))
		}
		herd.Done()
		herd.Wait()
		for _, frame := range answers {
			cn.handle(frame)
		}
	}
	for len(cn.table) > 0 {
		frame := next()
		if err != nil {
			cn.failAll(err)
			return
		}
		cn.handle(frame)
	}
	// Every session resolved; a reject owed for the last one still goes.
	write() // best effort: no session waits on these bytes
}

// open starts session sid with its signed opening claim; forged, it
// will tamper with its final PoC.
func (cn *clientConn) open(sid uint64, forged bool) {
	s := &clientSession{forged: forged}
	s.m.Init(&cn.cfg.Config, cn.serverKey)
	if err := s.m.Start(&cn.env, cn.emit(sid, s)); err != nil {
		cn.res.Failed++
		cn.unsettled(err)
		return
	}
	cn.table[sid] = s
}

// emit queues a machine's outbound message for session sid, applying
// PoC forgery when configured.
func (cn *clientConn) emit(sid uint64, s *clientSession) func([]byte) error {
	return func(msg []byte) error {
		if s.forged && len(msg) > 0 && msg[0] == 3 {
			// Flip the tail of the PoC — inside the outer signature —
			// so the server's Algorithm 2 verification must fail.
			msg[len(msg)-1] ^= 0xff
			cn.res.ForgedSent++
		}
		cn.out = appendFrame(cn.out, TypeData, sid, msg)
		return nil
	}
}

// handle answers one server frame. A frame for a session this conn
// does not hold open is ignored; one that is not a mux frame fails
// every open session, since the conn's framing is suspect.
func (cn *clientConn) handle(frame []byte) {
	typ, sid, payload, err := DecodeMux(frame)
	if err != nil {
		cn.failAll(err)
		return
	}
	s := cn.table[sid]
	if s == nil {
		return
	}
	switch typ {
	case TypeReject:
		code, detail := byte(0), payload
		if len(payload) > 0 {
			code, detail = payload[0], payload[1:]
		}
		cn.unsettled(rejectCause(code, detail))
		switch {
		case s.forged && code == RejectFailed:
			cn.res.ForgedRejected++ // the server caught the forgery
		case code == RejectOverload:
			cn.res.Rejected++
		default:
			cn.res.Failed++
		}

	case TypeDone:
		switch {
		case s.forged:
			// The server settled a tampered PoC: charging integrity is
			// broken. Surfaced, never expected.
			cn.res.ForgedVerified++
		case s.m.Done() && s.m.Finisher() && len(payload) == 8 &&
			binary.BigEndian.Uint64(payload) == s.m.X():
			cn.settle(s)
		default:
			cn.res.Failed++
			cn.unsettled(fmt.Errorf("%w: TypeDone for a session this side did not finish at that X", protocol.ErrBadMessage))
		}

	case TypeData:
		finished, err := s.m.Handle(payload, &cn.env, cn.emit(sid, s))
		switch {
		case err != nil:
			cn.res.Failed++
			cn.unsettled(err)
			cn.out = appendFrame(cn.out, TypeReject, sid, []byte{RejectFailed})
		case finished && !s.m.Finisher():
			// The server sent the final PoC; settled without an ack.
			cn.settle(s)
		default:
			// Still negotiating, or this side sent the final PoC
			// (possibly forged) and TypeDone or TypeReject resolves it.
			return
		}
	}
	delete(cn.table, sid)
}

func (cn *clientConn) settle(s *clientSession) {
	cn.res.Settled++
	cn.res.Receipts = append(cn.res.Receipts, Receipt{X: s.m.X(), Rounds: s.m.Rounds(), Proof: s.m.Proof()})
}

// failAll fails every open session after the conn died of err or
// broke framing.
func (cn *clientConn) failAll(err error) {
	if len(cn.table) == 0 {
		return
	}
	cn.res.Failed += len(cn.table)
	cn.unsettled(fmt.Errorf("session: conn lost with %d session(s) unresolved: %w", len(cn.table), err))
	clear(cn.table)
}

// unsettled keeps cause if it is the conn's first session that did
// not settle.
func (cn *clientConn) unsettled(cause error) {
	if cn.res.Cause == nil {
		cn.res.Cause = cause
	}
}

// rejectCause maps a TypeReject payload onto the error the server
// reported: ErrOverload or ErrEngineStopped, which protocol.Transient
// retries, or, for a verdict on the exchange, protocol.ErrBadMessage or
// protocol.ErrBadPeer (RejectFailed and unknown codes), which it does
// not.
func rejectCause(code byte, detail []byte) error {
	var err error
	switch code {
	case RejectOverload:
		err = ErrOverload
	case RejectShutdown:
		err = ErrEngineStopped
	case RejectBadMessage:
		err = protocol.ErrBadMessage
	default:
		err = protocol.ErrBadPeer
	}
	return fmt.Errorf("session: rejected by the server: %w: %q", err, detail)
}
