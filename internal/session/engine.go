package session

import (
	"bufio"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"tlc/internal/protocol"
)

// Config, Env and Machine alias internal/protocol's negotiation types
// for perfbench, a separate module that refers to them by these names.
type (
	Config  = protocol.Config
	Env     = protocol.Env
	Machine = protocol.Machine
)

// EngineConfig sizes the sharded engine.
type EngineConfig struct {
	// Config is the operator-side negotiation configuration shared by
	// every session.
	protocol.Config
	// Shards is the session-table split; power of two (default 8).
	Shards int
	// Workers is the crypto worker pool size (default 2).
	Workers int
	// MaxSessions caps resident sessions across all shards (default
	// 1<<20). The cap is enforced per shard (MaxSessions/Shards), so
	// hashing skew rejects slightly before the global cap.
	MaxSessions int
	// MaxPending caps queued frames per shard (default 1024).
	MaxPending int
	// Seed derives the per-shard strategy RNG streams.
	Seed int64
	// Nonce overrides CDR/CDA nonce randomness (nil = crypto/rand).
	Nonce io.Reader
	// Stopwatch returns elapsed seconds from an arbitrary origin; the
	// engine reads no clock itself (tlcvet simtime), so latency is
	// only observed when the caller injects one.
	Stopwatch func() float64
	// OnSettle, if set, is called after each settlement (for sampled
	// logging); it runs on a crypto worker, so keep it cheap.
	OnSettle func(conn, sid, x uint64, rounds int)
	// Recorder, if set, receives every settlement's durable record —
	// the serialized PoC plus routing identity — on a crypto worker.
	// Setting it turns on Config.KeepProof so the proof bytes survive
	// the transport buffers. Keep the callback cheap (an append to a
	// group-committed ledger qualifies); heavy work belongs on the
	// callee's own goroutine.
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

// Engine is the sharded session engine: one instance serves every mux
// connection of a tlcd process. See the package comment for the
// layering.
type Engine struct {
	cfg        protocol.Config
	table      *table
	ownDER     []byte
	work       chan *shard
	stop       chan struct{}
	stopped    atomic.Bool
	wg         sync.WaitGroup
	workers    int
	connID     atomic.Uint64
	active     atomic.Int64
	peakActive atomic.Int64
	stopwatch  func() float64
	onSettle   func(conn, sid, x uint64, rounds int)
	recorder   func(ProofRecord)
}

// NewEngine validates the configuration and builds the engine; call
// Start before serving connections.
func NewEngine(ec EngineConfig) (*Engine, error) {
	if err := ec.Config.Validate(); err != nil {
		return nil, err
	}
	if ec.Shards == 0 {
		ec.Shards = 8
	}
	if ec.Shards < 1 || ec.Shards&(ec.Shards-1) != 0 {
		return nil, fmt.Errorf("session: Shards must be a power of two, got %d", ec.Shards)
	}
	if ec.Workers <= 0 {
		ec.Workers = 2
	}
	if ec.MaxSessions <= 0 {
		ec.MaxSessions = 1 << 20
	}
	if ec.MaxPending <= 0 {
		ec.MaxPending = 1024
	}
	der, err := x509.MarshalPKIXPublicKey(&ec.Key.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("session: marshal own key: %w", err)
	}
	if ec.Recorder != nil {
		ec.Config.KeepProof = true
	}
	return &Engine{
		cfg:       ec.Config,
		table:     newTable(ec.Shards, ec.MaxSessions, ec.MaxPending, ec.Seed, ec.Nonce),
		ownDER:    der,
		work:      make(chan *shard, ec.Shards),
		stop:      make(chan struct{}),
		workers:   ec.Workers,
		stopwatch: ec.Stopwatch,
		onSettle:  ec.OnSettle,
		recorder:  ec.Recorder,
	}, nil
}

// Start launches the crypto worker pool.
func (e *Engine) Start() {
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for {
				select {
				case <-e.stop:
					return
				case sh := <-e.work:
					e.drain(sh)
				}
			}
		}()
	}
}

// Stop rejects new sessions, stops the workers and waits for them.
// Connections still being served keep their reader/writer goroutines
// until the caller closes them; queued work is abandoned.
func (e *Engine) Stop() {
	if e.stopped.CompareAndSwap(false, true) {
		close(e.stop)
	}
	e.wg.Wait()
}

// PeakActive reports the high-water mark of concurrently resident
// sessions since the engine started.
func (e *Engine) PeakActive() int64 { return e.peakActive.Load() }

// muxConn is the engine's per-connection state: the peer's verified
// key and the outbound queue its single writer goroutine drains.
type muxConn struct {
	id      uint64
	peerKey *rsa.PublicKey
	// peerFP is the hex SHA-256 fingerprint of the peer's PKIX DER,
	// computed once at hello; the recorder uses it as the subscriber
	// identity for settled proofs.
	peerFP string
	out    *outQueue
}

// sendData queues one negotiation message for sid as a TypeData frame.
func (c *muxConn) sendData(sid uint64, msg []byte) {
	out := bufPool.Get().(*[]byte)
	*out = AppendMux((*out)[:0], TypeData, sid, msg)
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
// each opened by the peer. ServeConn blocks until the peer hangs up or
// breaks framing, and returns with no goroutines left behind.
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

	c := &muxConn{
		id:      e.connID.Add(1),
		peerKey: peerKey,
		out:     newOutQueue(),
	}
	if e.recorder != nil {
		fp := sha256.Sum256(der)
		c.peerFP = hex.EncodeToString(fp[:])
	}
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
			e.abort(c, sid)
		case TypeDone:
			// Servers never expect acks; ignore.
		}
	}

	// Teardown: fail whatever is still resident for this conn, then
	// let the writer flush and exit. Workers may be settling these
	// sessions concurrently; the per-session state CAS arbitrates.
	e.evictConn(c, readErr)
	c.out.close()
	<-writerDone
	return readErr
}

// writeLoop is the connection's single writer: it batches queued
// frames through one bufio.Writer and flushes only when the queue
// momentarily empties, so a burst of worker output coalesces into few
// syscalls. Exits when the queue closes (conn teardown) or a write
// fails (peer gone — the queue goes dead and pushes become drops,
// which is what keeps slow/dead conns from wedging crypto workers).
func (c *muxConn) writeLoop(w io.Writer) {
	bw := bufio.NewWriterSize(w, 64<<10)
	var batch []*[]byte
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
		if c.out.empty() {
			if err := bw.Flush(); err != nil {
				c.out.markDead()
				return
			}
		}
	}
}

// outQueue is an unbounded multi-producer single-consumer queue of
// pooled frame buffers. Unbounded is deliberate: producers are crypto
// workers that must never block on a slow connection; the bound on
// total outstanding output is the admission-controlled session count.
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
