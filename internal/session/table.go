package session

import (
	"encoding/binary"
	"errors"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// connSid identifies a session: the conn that carries it plus the
// client-chosen session id. Keying by the conn itself, not its id,
// means no other conn can reach the session. Shard placement hashes
// the conn's id and the sid, but the table key is the pair itself —
// hash collisions share a shard, never a session.
type connSid struct {
	conn *muxConn
	sid  uint64
}

// fnv1a hashes a connSid for shard placement (FNV-1a over the 16 id
// bytes). Session ids are client-chosen and typically sequential;
// FNV-1a spreads them across shards where a modulo would stripe.
func (k connSid) fnv1a() uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 64; i += 8 {
		h ^= (k.conn.id >> i) & 0xff
		h *= 1099511628211
	}
	for i := 0; i < 64; i += 8 {
		h ^= (k.sid >> i) & 0xff
		h *= 1099511628211
	}
	return h
}

// Session lifecycle states (session.state).
const (
	stateActive int32 = iota
	stateSettled
	stateFailed
)

// session is one parked negotiation: the machine plus routing state.
// A parked session owns no goroutine — this struct in a shard's map
// is its entire footprint.
type session struct {
	key connSid
	m   protocol.Machine
	// state transitions exactly once from active via CAS; the winner
	// performs removal and metric accounting.
	state atomic.Int32
	// start is the engine Stopwatch reading at admission (0 when no
	// stopwatch is injected).
	start float64
}

// workItem is one queued frame for one session. payload is a pooled
// copy (the conn reader's buffer is reused per frame); the draining
// worker recycles it.
type workItem struct {
	s       *session
	payload *[]byte
}

// shard is 1/Nth of the session table. The mutex guards the map and
// the pending queue; crypto work happens outside it. The draining
// flag hands the shard to at most one worker at a time, which is also
// what makes env safe to use without its own lock: ownership of env
// passes between workers through the mutex at each batch swap.
type shard struct {
	mu       sync.Mutex
	sessions map[connSid]*session
	pending  []workItem
	spare    []workItem // recycled backing array for batch swaps
	draining bool
	env      protocol.Env // strategy RNG + nonce source, worker-owned while draining
}

// table is the sharded session table plus its admission limits.
type table struct {
	shards      []*shard
	mask        uint64
	maxPerShard int // session cap per shard
	maxPending  int // queued frames per shard
}

func newTable(nshards, maxSessions, maxPending int, seed int64, nonce io.Reader) *table {
	base := sim.NewRNG(seed)
	t := &table{
		shards:      make([]*shard, nshards),
		mask:        uint64(nshards - 1),
		maxPerShard: (maxSessions + nshards - 1) / nshards,
		maxPending:  maxPending,
	}
	for i := range t.shards {
		t.shards[i] = &shard{
			sessions: make(map[connSid]*session),
			env: protocol.Env{
				RNG:   base.Fork("shard" + strconv.Itoa(i)),
				Nonce: nonce,
			},
		}
	}
	return t
}

func (t *table) shard(k connSid) *shard {
	return t.shards[k.fnv1a()&t.mask]
}

// dispatch routes one TypeData payload. It runs on the connection's
// reader goroutine; all crypto happens later on a worker.
func (e *Engine) dispatch(c *muxConn, sid uint64, payload []byte) {
	key := connSid{conn: c, sid: sid}
	sh := e.table.shard(key)

	sh.mu.Lock()
	s := sh.sessions[key]
	switch {
	case s == nil:
		// First frame for this id: admission control, then open.
		if s = e.admit(sh, c, key); s == nil {
			return
		}
	case s.state.Load() != stateActive:
		// Late frame for a finished session; drop it.
		sh.mu.Unlock()
		return
	case len(sh.pending) >= e.table.maxPending:
		// The admitted session is outrunning the crypto pipeline.
		// Shedding the session (not silently dropping the frame) keeps
		// the failure visible to the peer.
		sh.mu.Unlock()
		Metrics.Backpressure.Inc()
		e.failSession(s, RejectOverload, ErrOverload)
		return
	}
	e.enqueue(sh, workItem{s: s, payload: copyToPooled(payload)})
}

// admit runs admission control for a new session and makes it
// resident. It is called with sh.mu held; on refusal it unlocks,
// rejects and returns nil.
func (e *Engine) admit(sh *shard, c *muxConn, key connSid) *session {
	if e.stopped.Load() {
		sh.mu.Unlock()
		c.sendReject(key.sid, RejectShutdown, "engine stopping")
		return nil
	}
	if len(sh.sessions) >= e.table.maxPerShard || len(sh.pending) >= e.table.maxPending {
		sh.mu.Unlock()
		Metrics.Rejected.Inc()
		c.sendReject(key.sid, RejectOverload, ErrOverload.Error())
		return nil
	}
	s := &session{key: key}
	s.m.Init(&e.cfg, c.peerKey)
	if e.stopwatch != nil {
		s.start = e.stopwatch()
	}
	sh.sessions[key] = s
	Metrics.Opened.Inc()
	protocol.Metrics.NegotiationsStarted.Inc()
	active := e.active.Add(1)
	Metrics.Active.Set(active)
	for {
		peak := e.peakActive.Load()
		if active <= peak || e.peakActive.CompareAndSwap(peak, active) {
			break
		}
	}
	return s
}

// enqueue queues one work item and hands the shard to a worker unless
// one already holds it. It is called with sh.mu held and unlocks it.
func (e *Engine) enqueue(sh *shard, it workItem) {
	sh.pending = append(sh.pending, it)
	notify := !sh.draining
	sh.draining = true
	sh.mu.Unlock()
	if notify {
		// Never blocks: the draining flag caps in-flight notifications
		// at one per shard and the channel holds one slot per shard.
		e.work <- sh
	}
}

// drain is a worker's claim on one shard: swap out the pending batch,
// process it outside the lock, repeat until the queue is empty, then
// release the shard. The mutex hand-off at each swap is the
// happens-before edge that lets successive workers share sh.env.
func (e *Engine) drain(sh *shard) {
	for {
		sh.mu.Lock()
		if len(sh.pending) == 0 {
			sh.draining = false
			sh.mu.Unlock()
			return
		}
		batch := sh.pending
		sh.pending = sh.spare[:0]
		sh.spare = batch
		sh.mu.Unlock()

		Metrics.BatchSize.Observe(float64(len(batch)))
		for i := range batch {
			e.process(sh, batch[i])
			recycle(batch[i].payload)
			batch[i] = workItem{}
		}
	}
}

// process advances one session by one frame. All RSA work happens
// here, on a worker, batched with the rest of the shard's backlog.
func (e *Engine) process(sh *shard, it workItem) {
	s := it.s
	if s.state.Load() != stateActive {
		return
	}
	finished, err := s.m.Handle(*it.payload, &sh.env, func(msg []byte) error {
		s.key.conn.sendData(s.key.sid, msg)
		return nil
	})
	if err != nil {
		code := byte(RejectFailed)
		if errors.Is(err, protocol.ErrBadMessage) {
			code = RejectBadMessage
		}
		e.failSession(s, code, err)
		return
	}
	if finished {
		e.settleSession(s)
	}
}

// settleSession finalises a settled session: remove it, account it,
// and acknowledge the finisher if the peer signed the final PoC.
func (e *Engine) settleSession(s *session) {
	if !s.state.CompareAndSwap(stateActive, stateSettled) {
		return
	}
	e.removeSession(s)
	Metrics.Settled.Inc()
	protocol.Metrics.NegotiationsSettled.Inc()
	protocol.Metrics.RoundsTotal.Add(uint64(s.m.Rounds()))
	if e.stopwatch != nil {
		protocol.Metrics.NegotiateSeconds.Observe(e.stopwatch() - s.start)
	}
	if !s.m.Finisher() {
		// The peer sent the final PoC; ack settlement with X.
		out := bufPool.Get().(*[]byte)
		var xb [8]byte
		binary.BigEndian.PutUint64(xb[:], s.m.X())
		*out = AppendMux((*out)[:0], TypeDone, s.key.sid, xb[:])
		s.key.conn.out.push(out)
	}
	if e.onSettle != nil {
		e.onSettle(s.key.conn.id, s.key.sid, s.m.X(), s.m.Rounds())
	}
	if e.recorder != nil {
		e.recorder(ProofRecord{
			Conn:   s.key.conn.id,
			SID:    s.key.sid,
			PeerFP: s.key.conn.peerFP,
			X:      s.m.X(),
			Rounds: s.m.Rounds(),
			Proof:  s.m.Proof(),
		})
	}
}

// failSession tears down an admitted session after a validation,
// transport or backpressure failure, notifying the peer with code.
func (e *Engine) failSession(s *session, code byte, cause error) {
	if !s.state.CompareAndSwap(stateActive, stateFailed) {
		return
	}
	e.removeSession(s)
	Metrics.Failed.Inc()
	protocol.CountFailure(cause)
	detail := ""
	if cause != nil {
		detail = cause.Error()
	}
	s.key.conn.sendReject(s.key.sid, code, detail)
}

// abort fails a session its client gave up on.
func (e *Engine) abort(c *muxConn, sid uint64) {
	key := connSid{conn: c, sid: sid}
	sh := e.table.shard(key)
	sh.mu.Lock()
	s := sh.sessions[key]
	sh.mu.Unlock()
	if s != nil {
		e.failSession(s, RejectFailed, nil)
	}
}

// evictConn fails every session conn still holds in the table, with
// cause the error that ended the conn (nil for a clean hang-up).
// Victims are collected under the shard lock but failed outside it
// (failSession re-enters the shard lock through removeSession).
func (e *Engine) evictConn(c *muxConn, cause error) {
	var victims []*session
	for _, sh := range e.table.shards {
		sh.mu.Lock()
		for k, s := range sh.sessions {
			if k.conn == c {
				victims = append(victims, s)
			}
		}
		sh.mu.Unlock()
	}
	for _, s := range victims {
		e.failSession(s, RejectShutdown, cause)
	}
}

// removeSession deletes the session from its shard.
func (e *Engine) removeSession(s *session) {
	sh := e.table.shard(s.key)
	sh.mu.Lock()
	if sh.sessions[s.key] == s {
		delete(sh.sessions, s.key)
	}
	sh.mu.Unlock()
	Metrics.Active.Set(e.active.Add(-1))
}
