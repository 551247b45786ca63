// Command tlcd runs one side of a TLC charging negotiation over TCP:
// an operator endpoint that serves negotiations, or an edge client
// that settles a cycle against it. It demonstrates the protocol on a
// real network; keys are generated on startup and exchanged over a
// preliminary frame (a production deployment would provision them out
// of band, §5.3.1).
//
// Usage:
//
//	tlcd -role operator -listen :7075 -sent 1000000 -received 930000
//	tlcd -role edge -connect localhost:7075 -sent 1000000 -received 930000 \
//	     -proof-out cycle.poc
//
// The operator serves each connection in its own goroutine (bounded
// by -max-conns), so one stalled client cannot block the others. A
// -max-conns, -ledger-fsync or -retries below 1, or a -conn-timeout or
// -mux-conn-timeout of 0 or less, is refused at startup with exit
// status 2. Every connection speaks TLCMUX1 to the operator's session
// engine: tlcd -role edge settles its cycle as one session on its
// conn, and a load client multiplexes many. With -http the operator
// also exposes a debug endpoint: Prometheus /metrics, /healthz, expvar
// under /debug/vars, and net/http/pprof under /debug/pprof/. SIGINT or
// SIGTERM stops accepting, drains in-flight negotiations (bounded by
// -drain-timeout), logs a final metrics snapshot, and exits 0.
//
// The -faults flag injects seeded stream faults (corrupted reads,
// truncated writes, write stalls) into the live connection, and
// -retries lets the edge re-dial through them with exponential
// backoff:
//
//	tlcd -role edge -connect localhost:7075 -sent 1000000 -received 930000 \
//	     -faults corrupt=0.01,truncate=0.02,stall=0.05,stallfor=20ms \
//	     -fault-seed 7 -retries 5
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tlc"
	"tlc/internal/core"
	"tlc/internal/faults"
	"tlc/internal/ledger"
	"tlc/internal/metrics"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
	"tlc/internal/sim"
)

func main() {
	var (
		role     = flag.String("role", "operator", "operator or edge")
		listen   = flag.String("listen", ":7075", "operator listen address")
		connect  = flag.String("connect", "", "edge: operator address to dial")
		sent     = flag.Uint64("sent", 0, "usage view: bytes the edge sent")
		received = flag.Uint64("received", 0, "usage view: bytes the edge received")
		c        = flag.Float64("c", 0.5, "lost-data charging weight")
		cycleDur = flag.Duration("cycle-dur", time.Hour, "charging cycle duration")
		strategy = flag.String("strategy", "optimal", "honest, optimal or random")
		keyPath  = flag.String("key", "", "own private key PEM (from tlckeys); generated if empty")
		proofOut = flag.String("proof-out", "", "write the settled proof here")
		once     = flag.Bool("once", true, "operator: exit after one negotiation")
		faultStr = flag.String("faults", "", "stream fault spec, e.g. corrupt=0.01,truncate=0.02,stall=0.05,stallfor=20ms (see internal/faults)")
		faultSd  = flag.Int64("fault-seed", 1, "seed for the injected fault stream (same seed+spec replays identically)")
		retries  = flag.Int("retries", 1, "edge: dial+settle attempts; transient faults back off exponentially")
		httpAddr = flag.String("http", "", "operator: serve /metrics, /healthz and /debug on this address")
		maxConns = flag.Int("max-conns", 64, "operator: max concurrent negotiations")
		connTO   = flag.Duration("conn-timeout", time.Minute, "per-connection read/write deadline")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "operator shutdown: max wait for in-flight negotiations")
		shards   = flag.Int("session-shards", 8, "operator: session-table shards (power of two)")
		workers  = flag.Int("session-workers", 2, "operator: crypto worker pool size")
		maxSess  = flag.Int("max-sessions", 1<<20, "operator: resident session cap across all shards")
		pending  = flag.Int("session-pending", 1024, "operator: queued frames per shard before overload rejection")
		muxTO    = flag.Duration("mux-conn-timeout", 15*time.Minute, "deadline for multiplexed connections (carry many sessions, so much longer than -conn-timeout)")
		verbose  = flag.Bool("v", false, "log every settlement instead of a 1-in-1024 sample")
		ledDir   = flag.String("ledger-dir", "", "operator: durable settlement ledger directory (empty = no ledger)")
		ledSync  = flag.Int("ledger-fsync", 16, "operator: ledger group-commit window (fsync every N appends; 1 = every append)")
		auditQ   = flag.String("audit", "", "audit query over -ledger-dir, e.g. subscriber=<fingerprint>,cycle=<id>; prints the report and exits")
	)
	flag.Parse()
	if err := checkServingFlags(*maxConns, *connTO, *muxTO, *ledSync, *retries); err != nil {
		fmt.Fprintf(os.Stderr, "tlcd: %v\n", err)
		os.Exit(2)
	}

	if *auditQ != "" {
		if *ledDir == "" {
			log.Fatal("-audit requires -ledger-dir")
		}
		if err := runAudit(os.Stdout, *ledDir, *auditQ); err != nil {
			log.Fatal(err)
		}
		return
	}

	var spec *faults.Spec
	if *faultStr != "" {
		s, err := faults.Parse(*faultStr)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		s = s.WithDefaults()
		spec = &s
	}

	strat := tlc.Optimal
	switch *strategy {
	case "honest":
		strat = tlc.Honest
	case "random":
		strat = tlc.RandomSelfish
	case "optimal":
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	var keys *tlc.KeyPair
	var err error
	if *keyPath != "" {
		keys, err = tlc.LoadKeyPair(*keyPath)
	} else {
		keys, err = tlc.GenerateKeyPair()
	}
	if err != nil {
		log.Fatal(err)
	}
	end := time.Now().Truncate(time.Hour)
	plan := tlc.Plan{Start: end.Add(-*cycleDur), End: end, C: *c}
	usage := tlc.Usage{Sent: *sent, Received: *received}

	switch *role {
	case "operator":
		op := &operator{
			plan: plan, proofOut: *proofOut, once: *once, spec: spec, faultSeed: *faultSd,
			maxConns: *maxConns, connTimeout: *connTO, drainTimeout: *drainTO,
			verbose: *verbose, muxTimeout: *muxTO,
		}
		if *ledDir != "" {
			led, err := ledger.Open(ledger.Options{
				Dir: *ledDir, FS: ledger.DirFS{}, SyncEvery: *ledSync,
			}, nil)
			if err != nil {
				log.Fatalf("-ledger-dir: %v", err)
			}
			// The charging-cycle id is the cycle's start instant; the
			// same value an auditor derives from the plan.
			op.led, op.cycle = led, uint64(plan.Start.Unix())
			log.Printf("settlement ledger at %s (cycle %d, fsync every %d)",
				*ledDir, op.cycle, *ledSync)
		}
		if err := op.newEngine(keys, usage, strat, session.EngineConfig{
			Shards: *shards, Workers: *workers,
			MaxSessions: *maxSess, MaxPending: *pending,
			Seed: time.Now().UnixNano(),
		}); err != nil {
			log.Fatal(err)
		}
		if err := op.run(*listen, *httpAddr); err != nil {
			log.Fatal(err)
		}
	case "edge":
		if *connect == "" {
			log.Fatal("edge role requires -connect")
		}
		runEdge(*connect, negotiationConfig(poc.RoleEdge, plan, keys, usage, strat),
			*proofOut, spec, *faultSd, *retries, *connTO)
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

// wrapFaults interposes the seeded fault-injecting stream when the
// spec carries stream faults; otherwise the connection passes through
// untouched.
func wrapFaults(conn net.Conn, spec *faults.Spec, seed int64) (io.ReadWriteCloser, *faults.Trace) {
	if spec == nil || !spec.StreamActive() {
		return conn, nil
	}
	tr := &faults.Trace{}
	return &faults.Conn{
		Inner: conn, Spec: *spec, RNG: sim.NewRNG(seed), Trace: tr,
		Stall: time.Sleep,
	}, tr
}

// negotiationConfig is one side's configuration for the cycle: the
// plan as the wire carries it, the signing key, strat's claims and the
// usage view.
func negotiationConfig(role poc.Role, plan tlc.Plan, keys *tlc.KeyPair, usage tlc.Usage, strat tlc.Strategy) protocol.Config {
	var coreStrat core.Strategy = core.OptimalStrategy{}
	switch strat {
	case tlc.Honest:
		coreStrat = core.HonestStrategy{}
	case tlc.RandomSelfish:
		coreStrat = core.RandomSelfishStrategy{}
	}
	return protocol.Config{
		Role:     role,
		Plan:     poc.Plan{TStart: plan.Start.UnixNano(), TEnd: plan.End.UnixNano(), C: plan.C},
		Key:      keys.Signer(),
		Strategy: coreStrat,
		View:     core.View{Sent: float64(usage.Sent), Received: float64(usage.Received)},
	}
}

// settle runs the edge's side of the cycle as one TLCMUX1 session on
// conn and writes its proof to proofOut. A session that did not
// settle returns its cause, which protocol.Transient classifies.
func settle(conn io.ReadWriter, cfg protocol.Config, proofOut string) error {
	cfg.KeepProof = true
	res, err := session.RunClient(session.ClientConfig{
		Config:   cfg,
		Sessions: 1,
		Conns:    []io.ReadWriter{conn},
		Seed:     time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	if res.Settled != 1 {
		return res.Cause
	}
	r := res.Receipts[0]
	log.Printf("settled: %d bytes in %d round(s); proof %d bytes", r.X, r.Rounds, len(r.Proof))
	return writeProof(proofOut, r.Proof)
}

// writeProof stores a settled proof at path, if one is set.
func writeProof(path string, proof []byte) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, proof, 0o644); err != nil {
		return err
	}
	log.Printf("proof written to %s", path)
	return nil
}

// operator serves negotiations concurrently: each accepted connection
// runs in its own goroutine behind a bounded semaphore, so a stalled
// client occupies one slot instead of the whole listener. The session
// engine negotiates on every connection.
type operator struct {
	plan         tlc.Plan
	proofOut     string
	once         bool
	spec         *faults.Spec
	faultSeed    int64
	maxConns     int
	connTimeout  time.Duration
	drainTimeout time.Duration
	verbose      bool

	// engine serves every connection; newEngine builds it. muxTimeout
	// is a conn's deadline once its first frame is read: a conn can
	// carry many sessions.
	engine     *session.Engine
	muxTimeout time.Duration

	// led, when non-nil, durably records every settlement under cycle
	// as the charging-cycle id; ledgerErrs counts appends the store
	// refused (never fatal to serving).
	led        *ledger.Ledger
	cycle      uint64
	ledgerErrs atomic.Uint64

	ln      net.Listener
	closing atomic.Bool
	wg      sync.WaitGroup

	// firstDone fires after the first connection has been served, in
	// success or failure; -once uses it to trigger shutdown.
	firstDone chan struct{}
	firstOnce sync.Once

	// stop, when non-nil, is an extra shutdown trigger equivalent to
	// a signal; tests close it instead of raising SIGTERM.
	stop chan struct{}
}

// newEngine builds the session engine that negotiates on every
// connection: the operator's side of the plan, signed with keys and
// claimed from usage under strat, timed by a process stopwatch, and
// hooked to the settle log and recorder. Set led and proofOut first;
// ec carries the table sizing and seed.
func (o *operator) newEngine(keys *tlc.KeyPair, usage tlc.Usage, strat tlc.Strategy, ec session.EngineConfig) error {
	ec.Config = negotiationConfig(poc.RoleOperator, o.plan, keys, usage, strat)
	start := time.Now()
	ec.Stopwatch = func() float64 { return time.Since(start).Seconds() }
	ec.OnSettle = o.onSettle
	ec.Recorder = o.recorder()
	eng, err := session.NewEngine(ec)
	o.engine = eng
	return err
}

func (o *operator) run(addr, httpAddr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var debugLn net.Listener
	if httpAddr != "" {
		debugLn, err = net.Listen("tcp", httpAddr)
		if err != nil {
			_ = ln.Close() // already failing; the debug-listen error is the one to report
			return err
		}
	}
	return o.serveWith(ln, debugLn)
}

// serveWith runs the operator on already-bound listeners (debugLn may
// be nil). Split from run so tests can bind port 0 and read the
// chosen addresses back.
func (o *operator) serveWith(ln, debugLn net.Listener) error {
	o.ln = ln
	o.firstDone = make(chan struct{})
	log.Printf("operator listening on %s (plan c=%.2f cycle=[%s, %s))",
		ln.Addr(), o.plan.C, o.plan.Start.Format(time.RFC3339), o.plan.End.Format(time.RFC3339))

	var debug *http.Server
	if debugLn != nil {
		debug = startDebugServer(debugLn)
	}
	o.engine.Start()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	acceptErr := make(chan error, 1)
	go o.acceptLoop(acceptErr)

	select {
	case sig := <-sigCh:
		log.Printf("received %s: stopping accept, draining in-flight negotiations", sig)
	case <-o.stop:
	case <-o.firstDone:
		if !o.once {
			// Keep serving; only signals end a long-running operator.
			select {
			case sig := <-sigCh:
				log.Printf("received %s: stopping accept, draining in-flight negotiations", sig)
			case <-o.stop:
			case err := <-acceptErr:
				return err
			}
		}
	case err := <-acceptErr:
		return err
	}

	o.closing.Store(true)
	if err := o.ln.Close(); err != nil {
		log.Printf("listener close: %v", err)
	}
	o.drain()
	o.engine.Stop()
	if o.led != nil {
		// Flush the group-commit tail so the last settlements are
		// durable before the process exits; the directory then audits
		// cleanly with tlcd -audit.
		if err := o.led.Close(); err != nil {
			log.Printf("ledger close: %v", err)
		}
		if n := o.ledgerErrs.Load(); n > 0 {
			log.Printf("ledger: %d append(s) failed this run", n)
		}
	}
	if debug != nil {
		if err := debug.Close(); err != nil {
			log.Printf("debug server close: %v", err)
		}
	}
	logFinalSnapshot()
	return nil
}

// acceptLoop accepts until the listener closes, spawning one serving
// goroutine per connection behind the -max-conns semaphore. Accepting
// blocks while all slots are busy, which bounds memory and goroutines
// under a connection flood. The k-th accepted conn (from 0) draws its
// stream faults from -fault-seed + k, as the edge's attempt k does.
func (o *operator) acceptLoop(acceptErr chan<- error) {
	sem := make(chan struct{}, o.maxConns)
	for k := int64(0); ; k++ {
		conn, err := o.ln.Accept()
		if err != nil {
			if o.closing.Load() {
				return
			}
			acceptErr <- err
			return
		}
		sem <- struct{}{}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			defer func() { <-sem }()
			o.serve(conn, o.faultSeed+k)
			o.firstOnce.Do(func() { close(o.firstDone) })
		}()
	}
}

// settleLogCount samples the settlement log line: at session-engine
// scale an unconditional log.Printf per settlement serializes every
// crypto worker behind the log mutex. The first settlement always
// logs (single-shot runs keep their line); -v restores every line.
var settleLogCount atomic.Uint64

const settleLogSample = 1024

// onSettle is the session engine's per-settlement hook. It runs on a
// crypto worker, so the non-logging case is one atomic increment.
func (o *operator) onSettle(conn, sid, x uint64, rounds int) {
	n := settleLogCount.Add(1)
	if o.verbose || (n-1)%settleLogSample == 0 {
		log.Printf("settled: %d bytes in %d round(s) (conn %d sid %d; %d total)",
			x, rounds, conn, sid, n)
	}
}

// recorder is the session engine's settlement hook, or nil with
// neither a ledger nor -proof-out (which keeps KeepProof off and the
// engine's settle path allocation-free).
func (o *operator) recorder() func(session.ProofRecord) {
	if o.led == nil && o.proofOut == "" {
		return nil
	}
	return func(pr session.ProofRecord) {
		if o.led != nil {
			o.recordProof(pr)
		}
		if err := writeProof(o.proofOut, pr.Proof); err != nil {
			log.Printf("-proof-out: %v", err)
		}
	}
}

// recordProof appends one settled negotiation to the ledger; the
// subscriber identity is the peer-key fingerprint. Append failures are
// counted and logged, never fatal — charging keeps serving on a sick
// disk, the operator just loses durability (and hears about it).
func (o *operator) recordProof(pr session.ProofRecord) {
	rec := ledger.Record{
		Kind:       ledger.KindPoC,
		Cycle:      o.cycle,
		At:         time.Now().UnixNano(),
		Subscriber: pr.PeerFP,
		X:          pr.X,
		Rounds:     uint32(pr.Rounds),
		Proof:      pr.Proof,
	}
	if err := o.led.Append(&rec); err != nil {
		if o.ledgerErrs.Add(1) == 1 {
			log.Printf("ledger append failed (first of possibly many): %v", err)
		}
	}
}

// runAudit answers an offline audit query over a closed (or live —
// replay is read-only) ledger directory: parse "subscriber=X,cycle=Y",
// replay, print the report.
func runAudit(w io.Writer, dir, query string) error {
	var subscriber string
	var cycle uint64
	var haveCycle bool
	for _, kv := range strings.Split(query, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("-audit: bad term %q (want key=value)", kv)
		}
		switch k {
		case "subscriber":
			subscriber = v
		case "cycle":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return fmt.Errorf("-audit: cycle %q: %v", v, err)
			}
			cycle, haveCycle = n, true
		default:
			return fmt.Errorf("-audit: unknown key %q", k)
		}
	}
	if subscriber == "" || !haveCycle {
		return fmt.Errorf("-audit: need subscriber=<id>,cycle=<n>, got %q", query)
	}
	rep, err := ledger.Audit(ledger.DirFS{}, dir, subscriber, cycle)
	if err != nil {
		if errors.Is(err, ledger.ErrDirNotExist) {
			return fmt.Errorf("-audit: -ledger-dir %s does not exist (check the path)", dir)
		}
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit subscriber=%s cycle=%d\n", rep.Subscriber, rep.Cycle)
	fmt.Fprintf(&b, "  usage: ul=%d dl=%d volume=%d across %d record(s)\n",
		rep.UL, rep.DL, rep.Volume(), rep.Records)
	fmt.Fprintf(&b, "  stored: %d CDR(s), %d PoC(s)\n", len(rep.CDRs), len(rep.PoCs))
	for i := range rep.PoCs {
		p := &rep.PoCs[i]
		fmt.Fprintf(&b, "  poc[%d]: x=%d rounds=%d proof=%dB\n", i, p.X, p.Rounds, len(p.Proof))
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// serve hands one accepted connection to the session engine, its
// stream faults drawn from faultSeed. A conn can carry many sessions,
// so once its first frame is read it gets the longer
// -mux-conn-timeout; per-session progress is bounded by admission
// control, not the socket clock.
func (o *operator) serve(conn net.Conn, faultSeed int64) {
	defer conn.Close() //tlcvet:allow errdiscard — negotiation already settled or failed; close is cleanup
	if err := conn.SetDeadline(time.Now().Add(o.connTimeout)); err != nil {
		log.Printf("set deadline for %s: %v", conn.RemoteAddr(), err)
		return
	}
	rw, tr := wrapFaults(conn, o.spec, faultSeed)
	first, err := protocol.ReadFrame(rw)
	if err != nil {
		log.Printf("first frame from %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := conn.SetDeadline(time.Now().Add(o.muxTimeout)); err != nil {
		log.Printf("set mux deadline for %s: %v", conn.RemoteAddr(), err)
		return
	}
	if err := o.engine.ServeConn(rw, first); err != nil {
		log.Printf("conn %s: %v", conn.RemoteAddr(), err)
	}
	if tr != nil {
		log.Printf("fault injection: %s", tr.Summary())
	}
}

// drain waits for in-flight negotiations, giving up after
// -drain-timeout: their per-connection deadlines already bound how
// long an abandoned peer can hold a slot.
func (o *operator) drain() {
	done := make(chan struct{})
	go func() {
		o.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(o.drainTimeout):
		log.Printf("drain timeout after %s: exiting with negotiations in flight", o.drainTimeout)
	}
}

// logFinalSnapshot writes the non-zero registry series to the log so
// a terminated operator leaves its counters behind even without a
// scraper attached.
func logFinalSnapshot() {
	snap := metrics.Default.Snapshot()
	keys := make([]string, 0, len(snap))
	for k, v := range snap {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%g", k, snap[k])
	}
	if b.Len() == 0 {
		log.Printf("final metrics: all zero")
		return
	}
	log.Printf("final metrics:%s", b.String())
}

// startDebugServer serves the observability surface on an
// already-bound listener: Prometheus /metrics, /healthz, expvar at
// /debug/vars, pprof at /debug/pprof/.
func startDebugServer(ln net.Listener) *http.Server {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.Default.WriteText(w); err != nil {
			log.Printf("/metrics write: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		err := json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
		})
		if err != nil {
			log.Printf("/healthz write: %v", err)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("debug server: %v", err)
		}
	}()
	log.Printf("debug server on http://%s/metrics", ln.Addr())
	return srv
}

// checkServingFlags refuses limits tlcd cannot run with: acceptLoop's
// connection semaphore needs at least one slot (an unbuffered one
// blocks the first accepted conn forever, a negative size panics), a
// deadline of zero or less times out every read, and the ledger's and
// the retrier's defaults would silently replace a -ledger-fsync or
// -retries below 1 (with 16 appends per fsync and 3 attempts).
func checkServingFlags(maxConns int, connTimeout, muxConnTimeout time.Duration, ledgerFsync, retries int) error {
	if maxConns < 1 {
		return fmt.Errorf("-max-conns must be at least 1, got %d", maxConns)
	}
	if connTimeout <= 0 {
		return fmt.Errorf("-conn-timeout must be positive, got %v", connTimeout)
	}
	if muxConnTimeout <= 0 {
		return fmt.Errorf("-mux-conn-timeout must be positive, got %v", muxConnTimeout)
	}
	if ledgerFsync < 1 {
		return fmt.Errorf("-ledger-fsync must be at least 1, got %d", ledgerFsync)
	}
	if retries < 1 {
		return fmt.Errorf("-retries must be at least 1, got %d", retries)
	}
	return nil
}

// runEdge settles the edge's cycle against the operator at addr,
// re-dialing through transient failures up to retries attempts.
func runEdge(addr string, cfg protocol.Config, proofOut string, spec *faults.Spec,
	faultSeed int64, retries int, connTimeout time.Duration) {
	r := &protocol.Retrier{MaxAttempts: retries, Sleep: time.Sleep}
	attempts := 0
	err := r.Do(func(attempt int) error {
		attempts++
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return err
		}
		defer conn.Close() //tlcvet:allow errdiscard — negotiation already settled or failed; close is cleanup
		if err := conn.SetDeadline(time.Now().Add(connTimeout)); err != nil {
			return err
		}
		// A fresh fault stream per attempt, seeded off the attempt
		// index so replays of the whole retry sequence are identical.
		rw, tr := wrapFaults(conn, spec, faultSeed+int64(attempt))
		serr := settle(rw, cfg, proofOut)
		if tr != nil {
			log.Printf("attempt %d fault injection: %s", attempt+1, tr.Summary())
		}
		return serr
	})
	if err != nil {
		log.Fatalf("after %d attempt(s): %v", attempts, err)
	}
}
