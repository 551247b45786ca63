package session

import (
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// Config, Env and Machine alias internal/protocol's negotiation types
// for perfbench, a separate module that refers to them by these names.
type (
	Config  = protocol.Config
	Env     = protocol.Env
	Machine = protocol.Machine
)

// EngineConfig configures the session engine.
type EngineConfig struct {
	// Config is the operator-side negotiation configuration shared by
	// every session.
	protocol.Config
	// MaxSessions caps resident sessions across all conns (default
	// 1<<20); a session opened at the cap is refused with
	// RejectOverload.
	MaxSessions int
	// Seed derives each conn's strategy RNG stream.
	Seed int64
	// Stopwatch returns elapsed seconds from an arbitrary origin; the
	// engine reads no clock itself (tlcvet simtime), so latency is
	// only observed when the caller injects one.
	Stopwatch func() float64
	// Recorder, if set, receives every settlement's durable record —
	// the serialized PoC plus routing identity — on the reader of the
	// conn that carried it, once the frames of the step that settled it,
	// the peer's TypeDone among them, are handed to the conn's writer.
	// Setting it turns on Config.KeepProof so the proof bytes survive
	// the transport buffers. The conn reads no further frame until it
	// returns, so a slow recorder slows only that conn.
	Recorder func(ProofRecord)
}

// ProofRecord is one settled negotiation as handed to a Recorder: the
// engine-scoped connection id, the client-chosen session id, the hex
// SHA-256 fingerprint of the peer's PKIX public key (the closest thing
// a mux peer has to a subscriber identity), the agreed volume, the
// rounds it took, and the serialized PoC (owned by the record).
type ProofRecord struct {
	Conn   uint64
	SID    uint64
	PeerFP string
	X      uint64
	Rounds int
	Proof  []byte
}

// Engine is the session engine: one instance serves every mux
// connection of a tlcd process. See the package comment for the
// layering.
type Engine struct {
	cfg        EngineConfig
	ownDER     []byte
	stopped    atomic.Bool
	connID     atomic.Uint64
	active     atomic.Int64
	peakActive atomic.Int64
}

// NewEngine validates the configuration and builds the engine.
func NewEngine(ec EngineConfig) (*Engine, error) {
	if err := ec.Config.Validate(); err != nil {
		return nil, err
	}
	if ec.MaxSessions <= 0 {
		ec.MaxSessions = 1 << 20
	}
	der, err := x509.MarshalPKIXPublicKey(&ec.Key.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("session: marshal own key: %w", err)
	}
	if ec.Recorder != nil {
		ec.Config.KeepProof = true
	}
	return &Engine{cfg: ec, ownDER: der}, nil
}

// Start does nothing: each conn's reader runs its own sessions, so the
// engine has no goroutine to start. perfbench still calls it.
func (e *Engine) Start() {}

// Stop refuses new conns and sessions. Conns still being served keep
// their reader and writer until the caller closes them.
func (e *Engine) Stop() { e.stopped.Store(true) }

// PeakActive reports the high-water mark of concurrently resident
// sessions since the engine started.
func (e *Engine) PeakActive() int64 { return e.peakActive.Load() }

// muxConn is one conn's engine state. It does no I/O: newMuxConn opens
// it from the conn's hello and handle advances it by one inbound
// frame, each appending the frames the engine owes to out and each
// settlement to settled, which ServeConn hands on after the step. One
// goroutine owns it.
type muxConn struct {
	e       *Engine
	id      uint64
	peerKey *rsa.PublicKey
	// peerFP is the hex SHA-256 fingerprint of the peer's PKIX DER,
	// computed once at hello; the recorder uses it as the subscriber
	// identity for settled proofs.
	peerFP   string
	env      protocol.Env
	sessions map[uint64]*session
	out      []byte
	frames   int // mux frames in out
	settled  []ProofRecord
}

// session is one open negotiation on a conn. It owns no goroutine —
// this struct in its conn's map is its entire footprint.
type session struct {
	m protocol.Machine
	// start is the engine Stopwatch reading at admission (0 when no
	// stopwatch is injected).
	start float64
}

// newMuxConn opens a conn from its first frame, which must be a
// TLCMUX1 hello. Key exchange completes with the engine's PKIX DER,
// once per connection: the key frame is the first thing in out.
func (e *Engine) newMuxConn(first []byte) (*muxConn, error) {
	if e.stopped.Load() {
		return nil, ErrEngineStopped
	}
	der, ok := IsHello(first)
	if !ok {
		return nil, ErrNotHello
	}
	peerKey, err := parsePeerKey(der)
	if err != nil {
		return nil, err
	}
	id := e.connID.Add(1)
	c := &muxConn{
		e:        e,
		id:       id,
		peerKey:  peerKey,
		env:      protocol.Env{RNG: sim.NewRNG(sim.SeedForCell(e.cfg.Seed, int(id)))},
		sessions: make(map[uint64]*session),
		out:      append(make([]byte, protocol.FrameHeaderSize), e.ownDER...),
	}
	protocol.PutFrameHeader(c.out)
	if e.cfg.Recorder != nil {
		fp := sha256.Sum256(der)
		c.peerFP = hex.EncodeToString(fp[:])
	}
	return c, nil
}

// ServeConn runs one connection to completion. first is the
// already-read first frame, which must be a TLCMUX1 hello (see
// IsHello); any other first frame is refused with ErrNotHello before
// the engine writes anything. The conn then carries many sessions,
// each opened by the peer. ServeConn's goroutine is the conn's reader
// and drives its state: it reads one frame, lets the state advance that
// frame's session, crypto included, and hands the frames the step owes
// to the conn's writer, then the step's settlements to the Recorder,
// before it reads the next. So every frame read before the peer hangs
// up settles or fails before the conn is torn down. ServeConn blocks
// until the peer hangs up or breaks framing, and returns with no
// goroutines left behind.
func (e *Engine) ServeConn(conn io.ReadWriter, first []byte) error {
	c, err := e.newMuxConn(first)
	if err != nil {
		return err
	}
	// The writer is its own goroutine so that a peer which writes
	// before it reads, as RunClient does, never blocks this reader on
	// its own answers.
	w := newConnWriter()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		w.run(conn)
	}()
	deliver := func() {
		w.put(c.out, c.frames)
		c.out, c.frames = c.out[:0], 0
		for i, pr := range c.settled {
			e.cfg.Recorder(pr)
			c.settled[i] = ProofRecord{}
		}
		c.settled = c.settled[:0]
	}
	deliver() // the key frame

	fr := protocol.NewFrameReader(conn)
	var readErr error
	for {
		frame, err := fr.ReadFrame()
		if err == nil {
			err = c.handle(frame)
		}
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		deliver()
	}

	// Teardown: what is still resident never got its final frame.
	c.evict(readErr)
	deliver()
	w.close()
	<-writerDone
	return readErr
}

// handle advances c by one inbound frame. A frame that is not a mux
// frame returns its error: the conn's framing is suspect, and the
// driver drops the whole connection.
func (c *muxConn) handle(frame []byte) error {
	typ, sid, payload, err := DecodeMux(frame)
	if err != nil {
		return err
	}
	switch typ {
	case TypeData:
		c.dispatch(sid, payload)
	case TypeReject:
		// The client gave up on the session.
		if c.sessions[sid] != nil {
			c.failSession(sid, RejectFailed, nil)
		}
	case TypeDone:
		// Servers never expect acks; ignore.
	}
	return nil
}

// queue appends one mux frame the engine owes the peer to out.
func (c *muxConn) queue(typ byte, sid uint64, payload []byte) {
	c.out = appendFrame(c.out, typ, sid, payload)
	c.frames++
}

// reject tells the peer that session sid ended without settling.
func (c *muxConn) reject(sid uint64, code byte, detail string) {
	c.queue(TypeReject, sid, append([]byte{code}, detail...))
}

// dispatch advances session sid by one TypeData payload, opening it on
// its first frame. Handle's RSA work runs here inline, on the frame
// reader's own buffer: Handle retains no frame.
func (c *muxConn) dispatch(sid uint64, payload []byte) {
	s := c.sessions[sid]
	if s == nil {
		if s = c.admit(sid); s == nil {
			return
		}
	}
	finished, err := s.m.Handle(payload, &c.env, func(msg []byte) error {
		c.queue(TypeData, sid, msg)
		return nil
	})
	switch {
	case err != nil:
		code := byte(RejectFailed)
		if errors.Is(err, protocol.ErrBadMessage) {
			code = RejectBadMessage
		}
		c.failSession(sid, code, err)
	case finished:
		c.settleSession(sid, s)
	}
}

// admit opens session sid, or refuses it with a typed reject when the
// engine is stopping or MaxSessions sessions are resident.
func (c *muxConn) admit(sid uint64) *session {
	e := c.e
	if e.stopped.Load() {
		c.reject(sid, RejectShutdown, "engine stopping")
		return nil
	}
	active := e.active.Add(1)
	if active > int64(e.cfg.MaxSessions) {
		e.active.Add(-1)
		Metrics.Rejected.Inc()
		c.reject(sid, RejectOverload, ErrOverload.Error())
		return nil
	}
	s := &session{}
	s.m.Init(&e.cfg.Config, c.peerKey)
	if e.cfg.Stopwatch != nil {
		s.start = e.cfg.Stopwatch()
	}
	c.sessions[sid] = s
	Metrics.Opened.Inc()
	protocol.Metrics.NegotiationsStarted.Inc()
	Metrics.Active.Set(active)
	for {
		peak := e.peakActive.Load()
		if active <= peak || e.peakActive.CompareAndSwap(peak, active) {
			break
		}
	}
	return s
}

// settleSession ends a settled session: it acknowledges the peer with
// X if the peer signed the final PoC, and keeps the proof for the
// recorder.
func (c *muxConn) settleSession(sid uint64, s *session) {
	c.release(sid)
	Metrics.Settled.Inc()
	protocol.Metrics.NegotiationsSettled.Inc()
	protocol.Metrics.RoundsTotal.Add(uint64(s.m.Rounds()))
	if c.e.cfg.Stopwatch != nil {
		protocol.Metrics.NegotiateSeconds.Observe(c.e.cfg.Stopwatch() - s.start)
	}
	if !s.m.Finisher() {
		var xb [8]byte
		binary.BigEndian.PutUint64(xb[:], s.m.X())
		c.queue(TypeDone, sid, xb[:])
	}
	if c.e.cfg.Recorder != nil {
		c.settled = append(c.settled, ProofRecord{
			Conn:   c.id,
			SID:    sid,
			PeerFP: c.peerFP,
			X:      s.m.X(),
			Rounds: s.m.Rounds(),
			Proof:  s.m.Proof(),
		})
	}
}

// failSession tears down an admitted session after a validation or
// transport failure, notifying the peer with code.
func (c *muxConn) failSession(sid uint64, code byte, cause error) {
	c.release(sid)
	Metrics.Failed.Inc()
	protocol.CountFailure(cause)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	c.reject(sid, code, detail)
}

// evict fails every session c still holds, with cause the error that
// ended the conn (nil for a clean hang-up).
func (c *muxConn) evict(cause error) {
	for sid := range c.sessions {
		c.failSession(sid, RejectShutdown, cause)
	}
}

// release removes session sid from its conn and the resident count.
func (c *muxConn) release(sid uint64) {
	delete(c.sessions, sid)
	Metrics.Active.Set(c.e.active.Add(-1))
}

// connWriter is a conn's writer. The reader puts each step's frames
// into one mutex-guarded buffer, and run swaps the buffer out and
// writes it in one call, so the frames put while a write is in flight
// go out together in the next. The buffer is unbounded, so the reader
// never blocks on a peer that has not started reading; after a failed
// write it drops what it is handed, so a dead conn never wedges its
// reader.
type connWriter struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []byte
	frames int  // mux frames in buf
	closed bool // conn tearing down: write what is left, then exit
	dead   bool // a write failed: puts are dropped
}

func newConnWriter() *connWriter {
	w := &connWriter{}
	w.ready.L = &w.mu
	return w
}

// put appends b, which holds frames mux frames, to the buffer.
func (w *connWriter) put(b []byte, frames int) {
	if len(b) == 0 {
		return
	}
	w.mu.Lock()
	if !w.dead {
		w.buf = append(w.buf, b...)
		w.frames += frames
		w.ready.Signal()
	}
	w.mu.Unlock()
}

// close lets run write what is buffered and exit.
func (w *connWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.ready.Signal()
	w.mu.Unlock()
}

// run writes the buffer in one call per batch until it is closed and
// empty or a write fails; BatchSize observes each write's mux frames.
func (w *connWriter) run(conn io.Writer) {
	var batch []byte
	for {
		w.mu.Lock()
		for len(w.buf) == 0 && !w.closed {
			w.ready.Wait()
		}
		if len(w.buf) == 0 {
			w.mu.Unlock()
			return
		}
		batch, w.buf = w.buf, batch[:0]
		frames := w.frames
		w.frames = 0
		w.mu.Unlock()
		if _, err := conn.Write(batch); err != nil {
			w.mu.Lock()
			w.dead, w.buf = true, nil
			w.mu.Unlock()
			return
		}
		if frames > 0 {
			Metrics.BatchSize.Observe(float64(frames))
		}
	}
}
