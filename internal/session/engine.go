package session

import (
	"bufio"
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
	// conn that carried it, after the peer's TypeDone is queued.
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

// muxConn is the engine's per-connection state. Its reader goroutine
// owns sessions and env; the outbound queue is the one thing it shares,
// with the conn's writer goroutine.
type muxConn struct {
	id      uint64
	peerKey *rsa.PublicKey
	// peerFP is the hex SHA-256 fingerprint of the peer's PKIX DER,
	// computed once at hello; the recorder uses it as the subscriber
	// identity for settled proofs.
	peerFP   string
	env      protocol.Env
	sessions map[uint64]*session
	out      *outQueue
}

// session is one open negotiation on a conn. It owns no goroutine —
// this struct in its conn's map is its entire footprint.
type session struct {
	m protocol.Machine
	// start is the engine Stopwatch reading at admission (0 when no
	// stopwatch is injected).
	start float64
}

// send queues one mux frame for the conn's writer.
func (c *muxConn) send(typ byte, sid uint64, payload []byte) {
	out := bufPool.Get().(*[]byte)
	*out = AppendMux((*out)[:0], typ, sid, payload)
	c.out.push(out)
}

// sendReject tells the peer that session sid ended without settling.
func (c *muxConn) sendReject(sid uint64, code byte, detail string) {
	out := bufPool.Get().(*[]byte)
	*out = AppendMux((*out)[:0], TypeReject, sid, nil)
	*out = append(*out, code)
	*out = append(*out, detail...)
	c.out.push(out)
}

// ServeConn runs one connection to completion. first is the
// already-read first frame, which must be a TLCMUX1 hello (see
// IsHello); any other first frame is refused with ErrNotHello before
// the engine writes anything. The conn then carries many sessions,
// each opened by the peer, and ServeConn's goroutine runs all of them:
// it reads one frame at a time and advances its session, crypto
// included, before it reads the next. So every frame read before the
// peer hangs up settles or fails before the conn is torn down.
// ServeConn blocks until the peer hangs up or breaks framing, and
// returns with no goroutines left behind.
func (e *Engine) ServeConn(conn io.ReadWriter, first []byte) error {
	if e.stopped.Load() {
		return ErrEngineStopped
	}
	der, ok := IsHello(first)
	if !ok {
		return ErrNotHello
	}
	peerKey, err := parsePeerKey(der)
	if err != nil {
		return err
	}
	// Key exchange completes with our PKIX DER; it happens once per
	// connection, not once per session.
	if err := protocol.WriteFrame(conn, e.ownDER); err != nil {
		return fmt.Errorf("session: write key frame: %w", err)
	}

	id := e.connID.Add(1)
	c := &muxConn{
		id:       id,
		peerKey:  peerKey,
		env:      protocol.Env{RNG: sim.NewRNG(sim.SeedForCell(e.cfg.Seed, int(id)))},
		sessions: make(map[uint64]*session),
		out:      newOutQueue(),
	}
	if e.cfg.Recorder != nil {
		fp := sha256.Sum256(der)
		c.peerFP = hex.EncodeToString(fp[:])
	}
	// The writer is its own goroutine so that a peer which writes
	// before it reads, as RunClient does, never blocks this reader on
	// its own answers.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		c.writeLoop(conn)
	}()

	fr := protocol.NewFrameReader(conn)
	var readErr error
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil {
			// Framing is suspect; drop the whole connection.
			readErr = err
			break
		}
		switch typ {
		case TypeData:
			e.dispatch(c, sid, payload)
		case TypeReject:
			// The client gave up on the session.
			if c.sessions[sid] != nil {
				e.failSession(c, sid, RejectFailed, nil)
			}
		case TypeDone:
			// Servers never expect acks; ignore.
		}
	}

	// Teardown: what is still resident never got its final frame.
	e.evictConn(c, readErr)
	c.out.close()
	<-writerDone
	return readErr
}

// dispatch advances session sid of c by one TypeData payload, opening
// it on its first frame. It runs on c's reader, which owns the
// session, so Handle's RSA work runs here inline, on the frame
// reader's own buffer: Handle retains no frame.
func (e *Engine) dispatch(c *muxConn, sid uint64, payload []byte) {
	s := c.sessions[sid]
	if s == nil {
		if s = e.admit(c, sid); s == nil {
			return
		}
	}
	finished, err := s.m.Handle(payload, &c.env, func(msg []byte) error {
		c.send(TypeData, sid, msg)
		return nil
	})
	switch {
	case err != nil:
		code := byte(RejectFailed)
		if errors.Is(err, protocol.ErrBadMessage) {
			code = RejectBadMessage
		}
		e.failSession(c, sid, code, err)
	case finished:
		e.settleSession(c, sid, s)
	}
}

// admit opens session sid on c, or refuses it with a typed reject when
// the engine is stopping or MaxSessions sessions are resident.
func (e *Engine) admit(c *muxConn, sid uint64) *session {
	if e.stopped.Load() {
		c.sendReject(sid, RejectShutdown, "engine stopping")
		return nil
	}
	active := e.active.Add(1)
	if active > int64(e.cfg.MaxSessions) {
		e.active.Add(-1)
		Metrics.Rejected.Inc()
		c.sendReject(sid, RejectOverload, ErrOverload.Error())
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
// X if the peer signed the final PoC, then hands the proof to the
// recorder.
func (e *Engine) settleSession(c *muxConn, sid uint64, s *session) {
	e.release(c, sid)
	Metrics.Settled.Inc()
	protocol.Metrics.NegotiationsSettled.Inc()
	protocol.Metrics.RoundsTotal.Add(uint64(s.m.Rounds()))
	if e.cfg.Stopwatch != nil {
		protocol.Metrics.NegotiateSeconds.Observe(e.cfg.Stopwatch() - s.start)
	}
	if !s.m.Finisher() {
		var xb [8]byte
		binary.BigEndian.PutUint64(xb[:], s.m.X())
		c.send(TypeDone, sid, xb[:])
	}
	if e.cfg.Recorder != nil {
		e.cfg.Recorder(ProofRecord{
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
func (e *Engine) failSession(c *muxConn, sid uint64, code byte, cause error) {
	e.release(c, sid)
	Metrics.Failed.Inc()
	protocol.CountFailure(cause)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	c.sendReject(sid, code, detail)
}

// evictConn fails every session c still holds, with cause the error
// that ended the conn (nil for a clean hang-up).
func (e *Engine) evictConn(c *muxConn, cause error) {
	for sid := range c.sessions {
		e.failSession(c, sid, RejectShutdown, cause)
	}
}

// release removes session sid from its conn and the resident count.
func (e *Engine) release(c *muxConn, sid uint64) {
	delete(c.sessions, sid)
	Metrics.Active.Set(e.active.Add(-1))
}

// writeLoop is the connection's single writer: it batches queued
// frames through one bufio.Writer and flushes only when the queue
// momentarily empties, so the answers the reader queues while the
// writer is busy coalesce into one syscall; BatchSize observes each
// flush's frame count. Exits when the queue closes (conn teardown) or a
// write fails (peer gone — the queue goes dead and pushes become
// drops, so a dead conn never wedges its reader).
func (c *muxConn) writeLoop(w io.Writer) {
	bw := bufio.NewWriterSize(w, 64<<10)
	var batch []*[]byte
	frames := 0
	for {
		var ok bool
		batch, ok = c.out.popAll(batch[:0])
		if !ok {
			_ = bw.Flush() // best-effort final flush on a closing conn
			return
		}
		for i, bp := range batch {
			if err := protocol.WriteFrame(bw, *bp); err != nil {
				for _, rest := range batch[i:] {
					recycle(rest)
				}
				c.out.markDead()
				return
			}
			recycle(bp)
			batch[i] = nil
		}
		frames += len(batch)
		if c.out.empty() {
			if err := bw.Flush(); err != nil {
				c.out.markDead()
				return
			}
			Metrics.BatchSize.Observe(float64(frames))
			frames = 0
		}
	}
}

// outQueue is an unbounded single-producer single-consumer queue of
// pooled frame buffers, from a conn's reader to its writer. Unbounded
// is deliberate: the reader must never block on a peer that has not
// started reading yet.
type outQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*[]byte
	closed bool // conn tearing down: drain, then writer exits
	dead   bool // writer gone: pushes become drops
}

func newOutQueue() *outQueue {
	q := &outQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a pooled buffer, recycling it immediately when the
// writer is gone.
func (q *outQueue) push(bp *[]byte) {
	q.mu.Lock()
	if q.closed || q.dead {
		q.mu.Unlock()
		recycle(bp)
		return
	}
	q.items = append(q.items, bp)
	q.cond.Signal()
	q.mu.Unlock()
}

// popAll blocks for the next batch; ok=false means closed-and-drained
// or dead.
func (q *outQueue) popAll(batch []*[]byte) ([]*[]byte, bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed && !q.dead {
		q.cond.Wait()
	}
	if q.dead || len(q.items) == 0 {
		q.mu.Unlock()
		return batch, false
	}
	batch = append(batch, q.items...)
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.mu.Unlock()
	return batch, true
}

func (q *outQueue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) == 0
}

// close stops accepting pushes; the writer drains what is queued and
// exits.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// markDead drops the backlog and makes future pushes no-ops.
func (q *outQueue) markDead() {
	q.mu.Lock()
	q.dead = true
	for i, bp := range q.items {
		recycle(bp)
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.cond.Broadcast()
	q.mu.Unlock()
}
