package main

import (
	"bufio"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tlc/internal/core"
	"tlc/internal/ledger"
	"tlc/internal/metrics"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
	"tlc/internal/sim"
)

// settledX is the fixture's known answer: a one-hour plan with c = 0.5
// and the paper's running usage example (1 000 000 bytes sent, 930 000
// received) settles in one round at x̂ = 965 000 under optimal play.
const settledX = 965_000

const (
	// openRate is the open-loop offered load in sessions per second:
	// about a fifth of the closed-loop rate this host class reaches,
	// because its CPU speed swings by 2x over minutes and an open loop
	// offered more than the host can settle backs up without bound.
	openRate   = 200
	liveConns  = 2    // TCP connections carrying the mux sessions
	liveWindow = 16   // closed loop: outstanding sessions per connection
	liveWarmup = 1000 // sessions settled on a fresh rig before measuring
	liveSetups = 41
	// liveSlices interleaves the open and closed loops, so both sample
	// the host over the whole run rather than one half each.
	liveSlices = 5
	// closedBudget sets the closed loop's work per slice: closedBudget
	// sessions per second of slice, about what this host class settles
	// at mid speed. A slice ends when its budget is spent or after two
	// slice lengths. The engine's memory grows with the sessions it has
	// settled, so a fixed amount of work keeps peak_rss_mb from
	// following the host's speed.
	closedBudget = 1200
	// rateQuantile picks the closed-loop throughput from the batch
	// rates. The host is shared, and other tenants slow RSA signing by
	// up to 2x for seconds at a time; a high quantile reports what the engine
	// sustains while the host runs at full speed, where a median would
	// mostly measure how busy the neighbours were.
	rateQuantile = 0.9
	// drainTimeout bounds the wait for a phase's last sessions; what is
	// still outstanding then counts as failed.
	drainTimeout = 10 * time.Second
)

// fixture is the negotiation both sides share: keys, plan and views.
type fixture struct {
	edge, op   *rsa.PrivateKey
	edgeDER    []byte
	subscriber string // hex SHA-256 of the edge's PKIX key, as the engine records it
	plan       poc.Plan
	view       core.View
}

// newFixture generates the two RSA-1024 key pairs. Go's RSA key
// generation takes a random 15–230 ms per pair on this class of host,
// so it runs once per process and is reported as setup.keygen_s rather
// than inside the repeated, median-taken set-up.
func newFixture() (*fixture, error) {
	edge, err := poc.GenerateKeyPair(poc.DefaultKeyBits, nil)
	if err != nil {
		return nil, err
	}
	op, err := poc.GenerateKeyPair(poc.DefaultKeyBits, nil)
	if err != nil {
		return nil, err
	}
	der, err := x509.MarshalPKIXPublicKey(edge.Public)
	if err != nil {
		return nil, fmt.Errorf("marshal edge key: %w", err)
	}
	fp := sha256.Sum256(der)
	return &fixture{
		edge: edge.Private, op: op.Private, edgeDER: der,
		subscriber: hex.EncodeToString(fp[:]),
		plan:       poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5},
		view:       core.View{Sent: 1_000_000, Received: 930_000},
	}, nil
}

func (f *fixture) config(role poc.Role, key *rsa.PrivateKey) session.Config {
	return session.Config{Role: role, Plan: f.plan, Key: key, Strategy: core.OptimalStrategy{}, View: f.view}
}

// runLive is one pass of settle or settle_durable: set-up (repeated,
// median reported), an open-loop phase at openRate, a closed-loop
// saturation phase and, when durable, the ledger audit. durable
// attaches a ledger at SyncEvery=1 through the engine's Recorder.
func runLive(p *pass, durable bool) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	fx, err := newFixture()
	if err != nil {
		return nil, err
	}
	out.values["setup.keygen_s"] = time.Since(t0).Seconds()

	var setups []float64
	var r *rig
	for range liveSetups {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			if r.ledDir != "" {
				if err := os.RemoveAll(r.ledDir); err != nil {
					return nil, err
				}
			}
		}
		start := time.Now()
		r, err = newRig(p, fx, durable)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// The warm-up is left out of setup_s: it is crypto-bound work whose
	// time swings with the host's CPU speed.
	r.check(out, "warm-up", r.closedLoop(math.Inf(1), liveWarmup, &r.genEnv))
	out.values["setup_s"] = median(setups)

	loadSecs := p.seconds * 0.5
	if durable {
		// Leave room for the audit that follows the load.
		loadSecs = p.seconds * 0.4
	}
	slice := loadSecs / liveSlices
	var opens, closeds []*phase
	var late, rates, sliceP50s []float64
	backlog := 0
	before, srvBefore := snapshotLive(), r.srv.snapshot()
	for i := 0; i < liveSlices; i++ {
		o, l, b := r.openLoop(openRate, slice, i)
		start := r.now()
		c := r.closedLoop(start+2*slice, max(1, int(closedBudget*slice)), &r.genEnv)
		end := r.now()
		r.check(out, fmt.Sprintf("open loop slice %d", i), o)
		r.check(out, fmt.Sprintf("closed loop slice %d", i), c)
		opens, closeds = append(opens, o), append(closeds, c)
		late = append(late, l...)
		backlog += b
		rates = append(rates, batchRates(c.settleAt, start, end)...)
		sliceP50s = append(sliceP50s, capInf(quantile(append([]float64(nil), o.lat...), 0.50), slice))
	}
	after, srv := snapshotLive(), r.srv.snapshot().minus(srvBefore)
	open, closed := merge(opens), merge(closeds)

	out.attempted += open.attempted + closed.attempted
	out.failed += open.failed + open.refused + closed.failed + closed.refused
	if open.settled == 0 || closed.settled == 0 {
		return nil, errNoWork
	}

	// End-to-end: open-loop latency from when each session was due, as
	// the p50 of the fastest slice, and closed-loop throughput as the
	// rateQuantile of the rates of batches of settlements; both read
	// the host at full speed (see rateQuantile).
	lat := append([]float64(nil), open.lat...)
	out.values["latency_ms"] = 1e3 * quantile(append([]float64(nil), sliceP50s...), 0)
	out.values["throughput_per_s"] = quantile(rates, rateQuantile)
	out.values["loadgen.settle_p90_ms"] = 1e3 * capInf(quantile(lat, 0.90), slice)
	out.values["loadgen.settle_p99_ms"] = 1e3 * capInf(quantile(lat, 0.99), slice)
	out.note("open loop: %d sessions offered at %.0f/s in %d slices of %.2fs, slice p50s %s ms, all sessions p50 %.3f ms, p90 %.3f ms, p99 %.3f ms",
		open.attempted, float64(openRate), liveSlices, slice, msList(sliceP50s),
		1e3*capInf(quantile(lat, 0.50), slice), out.values["loadgen.settle_p90_ms"], out.values["loadgen.settle_p99_ms"])
	out.note("closed loop: %d sessions settled in %d slices of up to %d sessions or %.2fs with %d outstanding per conn on %d conns, batch rates p50 %.1f/s p%.0f %.1f/s",
		closed.settled, liveSlices, max(1, int(closedBudget*slice)), 2*slice, liveWindow, liveConns, median(rates), 100*rateQuantile, out.values["throughput_per_s"])

	settled := float64(open.settled + closed.settled)
	out.values["loadgen.late_p99_ms"] = 1e3 * quantile(late, 0.99)
	out.values["loadgen.backlog"] = float64(backlog)
	calls := float64(open.handleCalls + closed.handleCalls)
	handleNs := float64(open.handleNs + closed.handleNs)
	out.values["session.client_handle_us"] = handleNs / calls / 1e3
	resid := after.negotiate.minus(before.negotiate)
	out.values["session.server_residence_p50_ms"] = 1e3 * resid.quantile(0.50)
	out.values["session.server_residence_p99_ms"] = 1e3 * resid.quantile(0.99)
	out.values["session.batch_mean"] = (after.batchSum - before.batchSum) / (after.batchCount - before.batchCount)
	out.values["session.active_peak"] = float64(r.eng.PeakActive())
	out.values["session.rejected"] = after.rejected - before.rejected
	out.values["session.backpressure"] = after.backpressure - before.backpressure
	openToSettle := (sum(open.openLat) + sum(closed.openLat)) / settled
	explained := resid.mean() + handleNs/settled/1e9
	out.values["session.unexplained_share"] = 1 - explained/openToSettle
	out.values["conn.write_calls_per_session"] = float64(srv.writes) / settled
	out.values["conn.read_calls_per_session"] = float64(srv.reads) / settled
	out.values["conn.bytes_per_session"] = float64(srv.readBytes+srv.writeBytes) / settled
	out.values["conn.write_us_per_session"] = float64(srv.writeNs) / settled / 1e3

	totalSettled := r.settled.Load()
	if err := r.close(); err != nil {
		return nil, err
	}
	if durable {
		r.audit(out, totalSettled)
		if err := os.RemoveAll(r.ledDir); err != nil {
			return nil, err
		}
		out.values["ledger.open_s"] = r.openSecs
		out.values["ledger.appends_per_sync"] = (after.appends - before.appends) / (after.syncs - before.syncs)
		out.values["ledger.bytes_per_record"] = (after.appendedBytes - before.appendedBytes) / (after.appends - before.appends)
		out.values["ledger.append_p50_us"] = quantile(r.appendUS, 0.50)
		out.values["ledger.append_p99_us"] = quantile(r.appendUS, 0.99)
	}
	return out, nil
}

// capInf replaces the +Inf a failed or refused session contributes to a
// latency quantile with limit: such a session misses any latency limit
// the run could have set.
func capInf(v, limit float64) float64 {
	if math.IsInf(v, 1) {
		return limit
	}
	return v
}

// msList formats seconds as a list of milliseconds.
func msList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(1e3*x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rateBatch is how many consecutive settlements one throughput sample
// spans.
const rateBatch = 250

// batchRates returns the rate of each run of rateBatch consecutive
// timestamps inside [from, to): the count over the time it took. With
// fewer timestamps than that it returns the plain rate over the window.
func batchRates(at []float64, from, to float64) []float64 {
	var in []float64
	for _, t := range at {
		if t >= from && t < to {
			in = append(in, t)
		}
	}
	if len(in) <= rateBatch {
		return []float64{float64(len(in)) / (to - from)}
	}
	sort.Float64s(in)
	var rates []float64
	for i := rateBatch; i < len(in); i += rateBatch {
		rates = append(rates, rateBatch/(in[i]-in[i-rateBatch]))
	}
	return rates
}

// merge folds the phases of all slices into one for reporting.
func merge(ps []*phase) *phase {
	m := newPhase()
	for _, p := range ps {
		m.attempted += p.attempted
		m.settled += p.settled
		m.failed += p.failed
		m.refused += p.refused
		m.badX += p.badX
		m.handleNs += p.handleNs
		m.handleCalls += p.handleCalls
		m.lat = append(m.lat, p.lat...)
		m.openLat = append(m.openLat, p.openLat...)
	}
	return m
}

// rig is one set-up of the live path: an engine serving loopback TCP,
// the client connections driving it and, when durable, the ledger.
type rig struct {
	p      *pass
	fx     *fixture
	cliCfg session.Config
	eng    *session.Engine
	ln     net.Listener
	serve  sync.WaitGroup
	conns  []*cliConn
	epoch  time.Time
	genEnv session.Env // owned by the goroutine driving the phases
	sid    atomic.Uint64
	srv    connStats
	// settled counts every session settled on this rig, warm-up
	// included, for the ledger check.
	settled atomic.Int64

	led        *ledger.Ledger
	ledDir     string
	openSecs   float64
	appendErrs atomic.Int64
	appendMu   sync.Mutex
	appendUS   []float64
}

func (r *rig) now() float64 { return time.Since(r.epoch).Seconds() }

// newRig builds one set-up: engine, ledger, listener and connections
// with their key exchange done.
func newRig(p *pass, fx *fixture, durable bool) (*rig, error) {
	rng := sim.NewRNG(p.seed)
	r := &rig{
		p: p, fx: fx, epoch: time.Now(),
		cliCfg: fx.config(poc.RoleEdge, fx.edge),
		genEnv: session.Env{RNG: rng.Fork("gen"), Nonce: rng.Fork("gen-nonce")},
	}
	ec := session.EngineConfig{
		Config:    fx.config(poc.RoleOperator, fx.op),
		Seed:      p.seed,
		Stopwatch: r.now,
	}
	if durable {
		ec.Recorder = r.record
	}
	eng, err := session.NewEngine(ec)
	if err != nil {
		return nil, err
	}
	if durable {
		if r.ledDir, err = os.MkdirTemp(p.dir, "ledger-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if r.led, err = ledger.Open(ledger.Options{Dir: r.ledDir, FS: ledger.DirFS{}, SyncEvery: 1}, nil); err != nil {
			return nil, err
		}
		r.openSecs = time.Since(t0).Seconds()
	}
	eng.Start()
	r.eng = eng
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Stop()
		if r.led != nil {
			_ = r.led.Close() // the listen error is the one to report
		}
		return nil, err
	}
	r.ln = ln
	r.serve.Add(1)
	go r.accept()
	for i := 0; i < liveConns; i++ {
		c, err := r.dial(rng, i)
		if err != nil {
			_ = r.close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// accept serves every inbound connection through the engine, over a
// connection wrapper that counts (and in a traced pass times) the
// engine's reads and writes.
func (r *rig) accept() {
	defer r.serve.Done()
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		nc, err := r.ln.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			defer func() { _ = nc.Close() }()
			mc := &meteredConn{Conn: nc, st: &r.srv, tr: r.p.tr}
			hello, err := protocol.ReadFrame(mc)
			if err != nil {
				return
			}
			// The client closing its end is the normal way a conn ends.
			_ = r.eng.ServeConn(mc, hello)
		}()
	}
}

// record is the engine's Recorder: it appends the settled PoC to the
// ledger on the crypto worker, as tlcd -ledger-dir does.
func (r *rig) record(pr session.ProofRecord) {
	rec := ledger.Record{
		Kind: ledger.KindPoC, Cycle: 1, Subscriber: pr.PeerFP,
		X: pr.X, Rounds: uint32(pr.Rounds), Proof: pr.Proof,
	}
	start := r.p.tr.now()
	if err := r.led.Append(&rec); err != nil {
		r.appendErrs.Add(1)
	}
	if r.p.tr != nil {
		end := r.p.tr.now()
		r.p.tr.add("ledger.append", pr.SID, pr.SID, start, end)
		r.appendMu.Lock()
		r.appendUS = append(r.appendUS, float64(end-start)/1e3)
		r.appendMu.Unlock()
	}
}

// close tears the rig down: client conns first (the engine sees EOF and
// fails nothing, since every phase drained), then the listener, the
// engine and the ledger.
func (r *rig) close() error {
	for _, c := range r.conns {
		_ = c.nc.Close() // ends the reader; its exit is awaited below
		<-c.done
	}
	_ = r.ln.Close() // stops accept; serve.Wait below awaits it
	r.serve.Wait()
	r.eng.Stop()
	if r.led != nil {
		if err := r.led.Close(); err != nil {
			return fmt.Errorf("ledger close: %w", err)
		}
	}
	return nil
}

// check applies the per-phase output checks.
func (r *rig) check(out *outcome, name string, ph *phase) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if got := ph.settled + ph.failed + ph.refused; got != ph.attempted {
		out.problem("%s: settled %d + failed %d + refused %d = %d, want attempted %d",
			name, ph.settled, ph.failed, ph.refused, got, ph.attempted)
	}
	if ph.badX != 0 {
		out.problem("%s: %d settled sessions have X != %d", name, ph.badX, settledX)
	}
}

// audit times a plain replay of the ledger, then replays it again and
// re-verifies every PoC with Algorithm 2, using one verifier so the
// archive-wide replay set is in force, and checks the ledger holds
// exactly the settled sessions.
func (r *rig) audit(out *outcome, settled int64) {
	if n := r.appendErrs.Load(); n != 0 {
		out.problem("ledger: %d appends failed", n)
	}
	tr := r.p.tr
	// Each pass starts from a collected heap, as in a separate auditor
	// process: Replay reads whole 4 MiB segments, and whether the load's
	// or the previous pass's garbage is still live beside them would
	// otherwise decide peak_rss_mb.
	runtime.GC()
	start, span := time.Now(), tr.now()
	records := 0
	if err := ledger.Replay(ledger.DirFS{}, r.ledDir, func(*ledger.Record) error {
		records++
		return nil
	}); err != nil {
		out.problem("ledger replay: %v", err)
		return
	}
	out.values["ledger.replay_s"] = time.Since(start).Seconds()
	tr.add("ledger.replay", 0, 0, span, tr.now())

	v := poc.NewVerifier(&r.fx.edge.PublicKey, &r.fx.op.PublicKey)
	n, bad, badX := 0, 0, 0
	runtime.GC()
	start = time.Now()
	err := ledger.Replay(ledger.DirFS{}, r.ledDir, func(rec *ledger.Record) error {
		if rec.Kind != ledger.KindPoC {
			return nil
		}
		n++
		s := tr.now()
		var proof poc.PoC
		switch {
		case proof.UnmarshalBinary(rec.Proof) != nil, v.Verify(&proof, r.fx.plan) != nil:
			bad++
		case proof.X != settledX || rec.X != settledX || rec.Subscriber != r.fx.subscriber:
			badX++
		}
		tr.add("poc.verify", 0, 0, s, tr.now())
		return nil
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		out.problem("ledger audit: %v", err)
		return
	}
	out.attempted += n
	out.failed += bad
	if int64(n) != settled || records != n {
		out.problem("ledger: %d PoCs in %d records replayed, want %d settled", n, records, settled)
	}
	if bad != 0 || badX != 0 {
		out.problem("ledger: %d PoCs failed Algorithm 2, %d have X != %d or a foreign subscriber", bad, badX, settledX)
	}
	out.values["ledger.audit_pocs_per_s"] = float64(n) / secs
	out.note("audit: %d ledger PoCs replayed and re-verified in %.3fs (%.0f/s)", n, secs, float64(n)/secs)
}

// liveSnapshot is the slice of metrics.Default a live pass diffs.
type liveSnapshot struct {
	negotiate                     hist
	batchSum, batchCount          float64
	rejected, backpressure        float64
	appends, syncs, appendedBytes float64
}

func snapshotLive() liveSnapshot {
	m := metrics.Default.Snapshot()
	return liveSnapshot{
		negotiate:     histOf(protocol.Metrics.NegotiateSeconds),
		batchSum:      m["session_crypto_batch_size_sum"],
		batchCount:    m["session_crypto_batch_size_count"],
		rejected:      m["sessions_rejected_total"],
		backpressure:  m["session_backpressure_total"],
		appends:       m["ledger_appends_total"],
		syncs:         m["ledger_syncs_total"],
		appendedBytes: m["ledger_appended_bytes_total"],
	}
}

// hist is a point-in-time copy of a registry histogram.
type hist struct {
	bounds []float64
	counts []uint64
	sum    float64
}

func histOf(h *metrics.Histogram) hist {
	return hist{bounds: h.BucketBounds(), counts: h.BucketCounts(), sum: h.Sum()}
}

func (h hist) minus(o hist) hist {
	d := hist{bounds: h.bounds, counts: make([]uint64, len(h.counts)), sum: h.sum - o.sum}
	for i := range h.counts {
		d.counts[i] = h.counts[i] - o.counts[i]
	}
	return d
}

func (h hist) quantile(q float64) float64 { return metrics.Quantile(h.bounds, h.counts, q) }

func (h hist) mean() float64 {
	var n uint64
	for _, c := range h.counts {
		n += c
	}
	return h.sum / float64(n)
}

// connStats counts the engine's conn traffic; writeNs is filled only in
// a traced pass.
type connStats struct {
	reads, writes, readBytes, writeBytes, writeNs atomic.Int64
}

type connCounts struct{ reads, writes, readBytes, writeBytes, writeNs int64 }

func (s *connStats) snapshot() connCounts {
	return connCounts{s.reads.Load(), s.writes.Load(), s.readBytes.Load(), s.writeBytes.Load(), s.writeNs.Load()}
}

func (c connCounts) minus(o connCounts) connCounts {
	return connCounts{c.reads - o.reads, c.writes - o.writes, c.readBytes - o.readBytes, c.writeBytes - o.writeBytes, c.writeNs - o.writeNs}
}

// meteredConn is the io.ReadWriter handed to Engine.ServeConn.
type meteredConn struct {
	net.Conn
	st *connStats
	tr *tracer
}

func (c *meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.st.reads.Add(1)
	c.st.readBytes.Add(int64(n))
	return n, err
}

func (c *meteredConn) Write(b []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(b)
	end := c.tr.now()
	c.tr.add("conn.write", 0, 0, start, end)
	c.st.writes.Add(1)
	c.st.writeBytes.Add(int64(n))
	c.st.writeNs.Add(end - start)
	return n, err
}

// cliConn is one client mux connection. The reader goroutine owns env
// and every session once it is published in sess.
type cliConn struct {
	r         *rig
	nc        net.Conn
	serverKey *rsa.PublicKey
	env       session.Env
	done      chan struct{}

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte

	mu   sync.Mutex
	sess map[uint64]*cliSess
}

// cliSess is one initiator-side negotiation.
type cliSess struct {
	sid         uint64
	ph          *phase
	m           session.Machine
	due, opened float64
	handleNs    int64
	calls       int64
}

// dial connects, exchanges keys over the public Hello/key-frame
// handshake and starts the connection's reader.
func (r *rig) dial(rng *sim.RNG, i int) (*cliConn, error) {
	nc, err := net.Dial("tcp", r.ln.Addr().String())
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cliConn, error) {
		_ = nc.Close()
		return nil, err
	}
	if err := protocol.WriteFrame(nc, session.Hello(r.fx.edgeDER)); err != nil {
		return fail(fmt.Errorf("hello: %w", err))
	}
	kf, err := protocol.ReadFrame(nc)
	if err != nil {
		return fail(fmt.Errorf("key frame: %w", err))
	}
	pub, err := x509.ParsePKIXPublicKey(kf)
	if err != nil {
		return fail(fmt.Errorf("server key: %w", err))
	}
	key, ok := pub.(*rsa.PublicKey)
	if !ok {
		return fail(fmt.Errorf("server key is %T, want RSA", pub))
	}
	name := "conn" + strconv.Itoa(i)
	c := &cliConn{
		r: r, nc: nc, serverKey: key,
		env:  session.Env{RNG: rng.Fork(name), Nonce: rng.Fork(name + "-nonce")},
		done: make(chan struct{}),
		bw:   bufio.NewWriterSize(nc, 16<<10),
		sess: make(map[uint64]*cliSess),
	}
	go c.readLoop()
	return c, nil
}

// send writes one mux frame and flushes it.
func (c *cliConn) send(typ byte, sid uint64, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = session.AppendMux(c.wbuf[:0], typ, sid, payload)
	if err := protocol.WriteFrame(c.bw, c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// open starts one session whose slot the phase has already reserved:
// the opening claim is signed on the caller's goroutine with env, the
// session is published to the reader, then the frame goes out.
func (c *cliConn) open(ph *phase, due float64, env *session.Env) {
	r := c.r
	s := &cliSess{sid: r.sid.Add(1), ph: ph, due: due, opened: r.now()}
	s.m.Init(&r.cliCfg, c.serverKey)
	var opening []byte
	err := c.timed(s, "client.start", func() error {
		return s.m.Start(env, func(msg []byte) error {
			opening = append(opening, msg...)
			return nil
		})
	})
	if err != nil {
		c.resolve(s, outFailed)
		return
	}
	c.mu.Lock()
	c.sess[s.sid] = s
	c.mu.Unlock()
	if err := c.send(session.TypeData, s.sid, opening); err != nil {
		c.mu.Lock()
		delete(c.sess, s.sid)
		c.mu.Unlock()
		c.resolve(s, outFailed)
	}
}

// timed runs one client machine call, accounting its time to the
// session (zero in an untraced pass).
func (c *cliConn) timed(s *cliSess, name string, call func() error) error {
	tr := c.r.p.tr
	start := tr.now()
	err := call()
	end := tr.now()
	tr.add(name, s.sid, s.sid, start, end)
	s.handleNs += end - start
	s.calls++
	return err
}

// readLoop advances sessions with the server's frames until the conn
// closes; sessions still unresolved then fail.
func (c *cliConn) readLoop() {
	defer close(c.done)
	fr := protocol.NewFrameReader(c.nc)
	for {
		frame, err := fr.ReadFrame()
		if err != nil {
			break
		}
		typ, sid, payload, err := session.DecodeMux(frame)
		if err != nil {
			break
		}
		c.mu.Lock()
		s := c.sess[sid]
		c.mu.Unlock()
		if s == nil {
			continue
		}
		switch typ {
		case session.TypeData:
			var finished bool
			err := c.timed(s, "client.handle", func() error {
				var herr error
				finished, herr = s.m.Handle(payload, &c.env, func(msg []byte) error {
					return c.send(session.TypeData, sid, msg)
				})
				return herr
			})
			switch {
			case err != nil:
				_ = c.send(session.TypeReject, sid, []byte{session.RejectFailed}) // best effort; the session is failed either way
				c.finish(s, outFailed)
			case finished && !s.m.Finisher():
				c.finish(s, outSettled)
			}
		case session.TypeDone:
			if s.m.Done() && s.m.Finisher() && len(payload) == 8 && binary.BigEndian.Uint64(payload) == s.m.X() {
				c.finish(s, outSettled)
			} else {
				c.finish(s, outFailed)
			}
		case session.TypeReject:
			if len(payload) > 0 && payload[0] == session.RejectOverload {
				c.finish(s, outRefused)
			} else {
				c.finish(s, outFailed)
			}
		}
	}
	c.mu.Lock()
	left := make([]*cliSess, 0, len(c.sess))
	for _, s := range c.sess {
		left = append(left, s)
	}
	c.sess = map[uint64]*cliSess{}
	c.mu.Unlock()
	for _, s := range left {
		c.resolve(s, outFailed)
	}
}

// finish unpublishes a resolved session and resolves it.
func (c *cliConn) finish(s *cliSess, o sessOutcome) {
	c.mu.Lock()
	delete(c.sess, s.sid)
	c.mu.Unlock()
	c.resolve(s, o)
}

// resolve records the outcome; in a closed loop the freed slot is
// refilled on this goroutine.
func (c *cliConn) resolve(s *cliSess, o sessOutcome) {
	at := c.r.now()
	if o == outSettled {
		c.r.settled.Add(1)
		if tr := c.r.p.tr; tr != nil {
			tr.add("session", 0, s.sid, int64(s.due*1e9)+tr.offset(c.r.epoch), tr.now())
		}
	}
	if s.ph.finish(s, o, at) {
		c.open(s.ph, at, &c.env)
	}
}

type sessOutcome int

const (
	outSettled sessOutcome = iota
	outFailed
	outRefused
)

// phase collects the outcomes of one load phase.
type phase struct {
	closedLoop bool
	stopAt     float64 // closed loop: no refill at or after this time
	limit      int     // closed loop: no refill once this many were attempted (0 = none)

	mu                          sync.Mutex
	attempted, outstanding      int
	settled, failed, refused    int
	badX                        int
	lat, openLat, settleAt      []float64
	handleNs, handleCalls       int64
	closing, drained, finalized bool
	done                        chan struct{}
}

func newPhase() *phase { return &phase{done: make(chan struct{})} }

// reserve counts one session as attempted and outstanding.
func (p *phase) reserve() {
	p.mu.Lock()
	p.attempted++
	p.outstanding++
	p.mu.Unlock()
}

// finish records a resolved session. It reports whether the caller
// must open a replacement, whose slot it has then already reserved.
func (p *phase) finish(s *cliSess, o sessOutcome, at float64) (refill bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finalized {
		return false
	}
	switch o {
	case outSettled:
		p.settled++
		p.lat = append(p.lat, at-s.due)
		p.openLat = append(p.openLat, at-s.opened)
		p.settleAt = append(p.settleAt, at)
		if s.m.X() != settledX {
			p.badX++
		}
	case outFailed:
		p.failed++
		p.lat = append(p.lat, math.Inf(1))
	case outRefused:
		p.refused++
		p.lat = append(p.lat, math.Inf(1))
	}
	p.handleNs += s.handleNs
	p.handleCalls += s.calls
	p.outstanding--
	if p.closedLoop && !p.closing {
		if at < p.stopAt && (p.limit == 0 || p.attempted < p.limit) {
			p.attempted++
			p.outstanding++
			return true
		}
		p.closing = true
	}
	p.signalLocked()
	return false
}

func (p *phase) signalLocked() {
	if p.closing && p.outstanding == 0 && !p.drained {
		p.drained = true
		close(p.done)
	}
}

// close stops the phase taking new sessions.
func (p *phase) close() {
	p.mu.Lock()
	p.closing = true
	p.signalLocked()
	p.mu.Unlock()
}

// wait blocks until the phase drains or drainTimeout passes; sessions
// still outstanding then count as failed.
func (p *phase) wait() {
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case <-p.done:
	case <-t.C:
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for ; p.outstanding > 0; p.outstanding-- {
		p.failed++
		p.lat = append(p.lat, math.Inf(1))
	}
	p.finalized = true
}

// openLoop offers sessions on a Poisson schedule drawn from the pass
// seed, spreading them round-robin over the connections, and times each
// from when it was due. It returns the phase, how late the generator
// opened each session (seconds) and the backlog still unresolved when
// the schedule ended.
func (r *rig) openLoop(rate, secs float64, slice int) (ph *phase, late []float64, backlog int) {
	rng := sim.NewRNG(r.p.seed).Fork("arrivals" + strconv.Itoa(slice))
	var offsets []float64
	for t := rng.Exp(time.Duration(float64(time.Second) / rate)).Seconds(); t < secs; t += rng.Exp(time.Duration(float64(time.Second) / rate)).Seconds() {
		offsets = append(offsets, t)
	}
	ph = newPhase()
	late = make([]float64, 0, len(offsets))
	start := r.now()
	for i, off := range offsets {
		due := start + off
		if d := due - r.now(); d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
		}
		late = append(late, r.now()-due)
		ph.reserve()
		r.conns[i%len(r.conns)].open(ph, due, &r.genEnv)
	}
	ph.mu.Lock()
	backlog = ph.outstanding
	ph.mu.Unlock()
	ph.close()
	ph.wait()
	return ph, late, backlog
}

// closedLoop keeps liveWindow sessions outstanding per connection until
// stopAt or until limit sessions were attempted, then drains.
func (r *rig) closedLoop(stopAt float64, limit int, env *session.Env) *phase {
	ph := newPhase()
	ph.closedLoop, ph.stopAt, ph.limit = true, stopAt, limit
	for _, c := range r.conns {
		for w := 0; w < liveWindow; w++ {
			ph.reserve()
			c.open(ph, r.now(), env)
		}
	}
	if !math.IsInf(stopAt, 1) {
		if d := stopAt - r.now(); d > 0 {
			t := time.NewTimer(time.Duration(d * float64(time.Second)))
			select {
			case <-ph.done: // the limit was reached and the phase drained
			case <-t.C:
			}
			t.Stop()
		}
		ph.close()
	}
	ph.wait()
	return ph
}
