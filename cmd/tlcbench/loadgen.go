// tlcd scale loadgen: drives the internal/session sharded engine (and
// the goroutine-per-conn baseline it replaces) with an in-process TCP
// server, producing BENCH_tlcd_scale.json — sessions/sec, negotiate
// latency quantiles, admission rejections and forged-PoC outcomes at
// several shard/worker settings.
//
//	tlcbench -loadgen -lg-sessions 20000 -lg-peak 100000 -lg-json BENCH_tlcd_scale.json
//	tlcbench -lg-smoke -lg-sessions 2000          # verify.sh stage, run under -race
//	tlcbench -lg-check BENCH_tlcd_scale.json      # schema + invariant check
package main

import (
	"crypto/rsa"
	"crypto/x509"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tlc/internal/core"
	"tlc/internal/ledger"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
	"tlc/internal/sim"
)

var (
	flagLoadgen    = flag.Bool("loadgen", false, "run the tlcd scale loadgen suite (baseline, mux shard sweep, overload, forged) instead of experiments")
	flagLGSmoke    = flag.Bool("lg-smoke", false, "loadgen smoke: mux runs only, assert zero rejections; the verify.sh -race stage")
	flagLGSessions = flag.Int("lg-sessions", 20000, "loadgen: sessions per rate run")
	flagLGPeak     = flag.Int("lg-peak", 0, "loadgen: extra thundering-herd run holding this many sessions resident at once (0 = skip)")
	flagLGConns    = flag.Int("lg-conns", 8, "loadgen: mux connections carrying the sessions")
	flagLGShards   = flag.String("lg-shards", "1,8", "loadgen: comma list of shard counts for the mux rate runs")
	flagLGWorkers  = flag.Int("lg-workers", 2, "loadgen: engine crypto workers")
	flagLGBaseline = flag.Int("lg-baseline", 0, "loadgen: baseline (conn-per-session) session count; 0 = lg-sessions/4, capped at 5000")
	flagLGJSON     = flag.String("lg-json", "", "loadgen: write the JSON report here ('-' for stdout)")
	flagLGCheck    = flag.String("lg-check", "", "validate a loadgen report (schema + charging/overload invariants) and exit")
	flagLGLedger   = flag.Bool("lg-ledger", false, "loadgen: add mux runs with the durable settlement ledger attached (throughput with durability on vs off)")
)

// lgReport is the -loadgen JSON document checked in as
// BENCH_tlcd_scale.json.
type lgReport struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	Note       string  `json:"note,omitempty"`
	Runs       []lgRun `json:"runs"`
	TotalSec   float64 `json:"total_sec"`
}

// lgRun is one load configuration's outcome.
type lgRun struct {
	Name string `json:"name"`
	// Mode is "baseline" (one conn + goroutine + key exchange per
	// session, the pre-engine tlcd shape) or "mux" (sharded engine).
	Mode     string `json:"mode"`
	Sessions int    `json:"sessions"`
	Conns    int    `json:"conns"`
	Shards   int    `json:"shards,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	// MaxSessions/MaxPending are the admission-control settings; the
	// overload run shrinks them below the offered load on purpose.
	MaxSessions int `json:"max_sessions,omitempty"`
	MaxPending  int `json:"max_pending,omitempty"`
	// OpenFirst marks thundering-herd runs: every claim queued before
	// any response is processed, so PeakActive == admitted sessions.
	OpenFirst      bool    `json:"open_first"`
	WallSec        float64 `json:"wall_sec"`
	SessionsPerSec float64 `json:"sessions_per_sec"`
	Settled        int     `json:"settled"`
	Rejected       int     `json:"rejected"`
	Failed         int     `json:"failed"`
	PeakActive     int64   `json:"peak_active,omitempty"`
	ForgedSent     int     `json:"forged_sent,omitempty"`
	ForgedRejected int     `json:"forged_rejected,omitempty"`
	// ForgedVerified is always emitted: its zero is the charging-
	// integrity invariant -lg-check enforces.
	ForgedVerified int     `json:"forged_verified"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	KeyCacheHits   uint64  `json:"key_cache_hits,omitempty"`
	KeyCacheMisses uint64  `json:"key_cache_misses,omitempty"`
	// LedgerSyncEvery/LedgerRecords appear on runs with the durable
	// settlement ledger attached: the group-commit window and how many
	// proofs the ledger held after the run (must equal Settled).
	LedgerSyncEvery int `json:"ledger_sync_every,omitempty"`
	LedgerRecords   int `json:"ledger_records,omitempty"`
}

// lgParties is the fixed negotiation fixture: deterministic keys, a
// one-hour plan and the paper's running usage example (3% loss, so
// optimal/optimal settles in one round at x̂ = 965000).
type lgParties struct {
	edge, op *poc.KeyPair
	plan     poc.Plan
	view     core.View
}

func lgSetup() (*lgParties, error) {
	rng := sim.NewRNG(1234)
	edge, err := poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("edge"))
	if err != nil {
		return nil, err
	}
	op, err := poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("op"))
	if err != nil {
		return nil, err
	}
	return &lgParties{
		edge: edge, op: op,
		plan: poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5},
		view: core.View{Sent: 1_000_000, Received: 930_000},
	}, nil
}

func (p *lgParties) engineConfig() protocol.Config {
	return protocol.Config{
		Role: poc.RoleOperator, Plan: p.plan, Key: p.op.Private,
		Strategy: core.OptimalStrategy{}, View: p.view,
	}
}

func (p *lgParties) clientConfig() protocol.Config {
	return protocol.Config{
		Role: poc.RoleEdge, Plan: p.plan, Key: p.edge.Private,
		Strategy: core.OptimalStrategy{}, View: p.view,
	}
}

// quantile returns the q-quantile of latencies in milliseconds.
func lgQuantileMs(lat []float64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	i := int(q * float64(len(s)-1))
	return s[i] * 1e3
}

// lgMuxSpec parameterizes one engine run.
type lgMuxSpec struct {
	name                            string
	sessions, conns, shards, wrk    int
	maxSessions, maxPending, forged int
	openFirst                       bool
	// ledgerSync > 0 attaches a real on-disk settlement ledger with
	// that group-commit window; every settled proof is appended and
	// the count is verified by replay after the run.
	ledgerSync int
}

// lgMuxRun serves one fresh engine on loopback and drives the mux
// client against it.
func lgMuxRun(p *lgParties, spec lgMuxSpec) (lgRun, error) {
	fail := func(err error) (lgRun, error) {
		return lgRun{}, fmt.Errorf("%s: %w", spec.name, err)
	}
	var led *ledger.Ledger
	var ledDir string
	if spec.ledgerSync > 0 {
		dir, err := os.MkdirTemp("", "tlc-lg-ledger")
		if err != nil {
			return fail(err)
		}
		ledDir = dir
		led, err = ledger.Open(ledger.Options{
			Dir: dir, FS: ledger.DirFS{}, SyncEvery: spec.ledgerSync,
		}, nil)
		if err != nil {
			return fail(err)
		}
	}
	ec := session.EngineConfig{
		Config: p.engineConfig(),
		Shards: spec.shards, Workers: spec.wrk,
		MaxSessions: spec.maxSessions, MaxPending: spec.maxPending,
		Seed: 99,
	}
	if led != nil {
		ec.Recorder = func(pr session.ProofRecord) {
			rec := ledger.Record{
				Kind: ledger.KindPoC, Cycle: 1,
				Subscriber: pr.PeerFP,
				X:          pr.X, Rounds: uint32(pr.Rounds), Proof: pr.Proof,
			}
			_ = led.Append(&rec) // bench harness; the replay count below catches losses
		}
	}
	eng, err := session.NewEngine(ec)
	if err != nil {
		return fail(err)
	}
	eng.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cwg sync.WaitGroup
		defer cwg.Wait()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cwg.Add(1)
			go func(conn net.Conn) {
				defer cwg.Done()
				defer conn.Close() //tlcvet:allow errdiscard — loadgen teardown
				hello, err := protocol.ReadFrame(conn)
				if err != nil {
					return
				}
				_ = eng.ServeConn(conn, hello)
			}(conn)
		}
	}()

	conns := make([]io.ReadWriter, spec.conns)
	raw := make([]net.Conn, spec.conns)
	for i := range conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return fail(err)
		}
		if err := c.SetDeadline(time.Now().Add(10 * time.Minute)); err != nil {
			return fail(err)
		}
		raw[i], conns[i] = c, c
	}

	start := time.Now()
	res, err := session.RunClient(session.ClientConfig{
		Config:   p.clientConfig(),
		Sessions: spec.sessions,
		Conns:    conns,
		Seed:     7,
		Stopwatch: func() float64 {
			return time.Since(start).Seconds()
		},
		OpenFirst: spec.openFirst,
		Forge:     spec.forged,
	})
	wall := time.Since(start)
	for _, c := range raw {
		_ = c.Close()
	}
	_ = ln.Close()
	wg.Wait()
	eng.Stop()
	ledgerRecords := 0
	if led != nil {
		if cerr := led.Close(); cerr != nil {
			return fail(fmt.Errorf("ledger close: %w", cerr))
		}
		rerr := ledger.Replay(ledger.DirFS{}, ledDir, func(rec *ledger.Record) error {
			if rec.Kind == ledger.KindPoC {
				ledgerRecords++
			}
			return nil
		})
		if rerr != nil {
			return fail(fmt.Errorf("ledger replay: %w", rerr))
		}
		_ = os.RemoveAll(ledDir)
	}
	if err != nil {
		return fail(err)
	}

	accounted := res.Settled + res.Rejected + res.Failed +
		res.ForgedRejected + res.ForgedVerified
	if accounted != spec.sessions {
		return fail(fmt.Errorf("accounted %d of %d sessions (%+v)", accounted, spec.sessions, *res))
	}
	hits, misses := eng.KeyCacheStats()
	run := lgRun{
		Name: spec.name, Mode: "mux",
		Sessions: spec.sessions, Conns: spec.conns,
		Shards: spec.shards, Workers: spec.wrk,
		MaxSessions: spec.maxSessions, MaxPending: spec.maxPending,
		OpenFirst: spec.openFirst,
		WallSec:   wall.Seconds(),
		Settled:   res.Settled, Rejected: res.Rejected, Failed: res.Failed,
		PeakActive: eng.PeakActive(),
		ForgedSent: res.ForgedSent, ForgedRejected: res.ForgedRejected,
		ForgedVerified: res.ForgedVerified,
		P50Ms:          lgQuantileMs(res.Latencies, 0.50),
		P99Ms:          lgQuantileMs(res.Latencies, 0.99),
		KeyCacheHits:   hits, KeyCacheMisses: misses,
		LedgerSyncEvery: spec.ledgerSync, LedgerRecords: ledgerRecords,
	}
	if s := wall.Seconds(); s > 0 {
		run.SessionsPerSec = float64(res.Settled) / s
	}
	return run, nil
}

// lgBaselineRun measures the pre-engine tlcd shape: every session is
// its own TCP connection, key exchange and serving goroutine. workers
// bounds client-side concurrency the way -max-conns bounds the
// server's.
func lgBaselineRun(p *lgParties, sessions, workers int) (lgRun, error) {
	fail := func(err error) (lgRun, error) {
		return lgRun{}, fmt.Errorf("baseline: %w", err)
	}
	opDER, err := x509.MarshalPKIXPublicKey(p.op.Public)
	if err != nil {
		return fail(err)
	}
	edgeDER, err := x509.MarshalPKIXPublicKey(p.edge.Public)
	if err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	// The accept loop and the job producer are the only goroutines that
	// fork (Fork draws from its parent), each from its own stream.
	rng := sim.NewRNG(4242)
	srvBase, cliBase := rng.Fork("srv"), rng.Fork("cli")
	var awg sync.WaitGroup
	awg.Add(1)
	go func() {
		defer awg.Done()
		var cwg sync.WaitGroup
		defer cwg.Wait()
		serial := 0
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serial++
			srvRNG := srvBase.Fork(strconv.Itoa(serial))
			cwg.Add(1)
			go func(conn net.Conn) {
				defer cwg.Done()
				defer conn.Close() //tlcvet:allow errdiscard — loadgen teardown
				_ = conn.SetDeadline(time.Now().Add(10 * time.Minute))
				peerDER, err := protocol.ReadFrame(conn)
				if err != nil {
					return
				}
				pub, err := x509.ParsePKIXPublicKey(peerDER)
				if err != nil {
					return
				}
				key, ok := pub.(*rsa.PublicKey)
				if !ok {
					return
				}
				if err := protocol.WriteFrame(conn, opDER); err != nil {
					return
				}
				party := &protocol.Party{
					Role: poc.RoleOperator, Plan: p.plan, Keys: p.op,
					PeerKey: key, Strategy: core.OptimalStrategy{}, View: p.view,
					RNG: srvRNG,
				}
				_, _ = party.Run(conn, true)
			}(conn)
		}
	}()

	var (
		mu        sync.Mutex
		settled   int
		failed    int
		latencies []float64
	)
	jobs := make(chan *sim.RNG) // each session's RNG
	var wwg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for cliRNG := range jobs {
				err := func() error {
					t0 := time.Since(start).Seconds()
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return err
					}
					defer conn.Close() //tlcvet:allow errdiscard — loadgen teardown
					if err := conn.SetDeadline(time.Now().Add(10 * time.Minute)); err != nil {
						return err
					}
					if err := protocol.WriteFrame(conn, edgeDER); err != nil {
						return err
					}
					peerDER, err := protocol.ReadFrame(conn)
					if err != nil {
						return err
					}
					pub, err := x509.ParsePKIXPublicKey(peerDER)
					if err != nil {
						return err
					}
					key, ok := pub.(*rsa.PublicKey)
					if !ok {
						return fmt.Errorf("server key is %T", pub)
					}
					party := &protocol.Party{
						Role: poc.RoleEdge, Plan: p.plan, Keys: p.edge,
						PeerKey: key, Strategy: core.OptimalStrategy{}, View: p.view,
						RNG: cliRNG,
					}
					if _, err := party.Run(conn, false); err != nil {
						return err
					}
					mu.Lock()
					settled++
					latencies = append(latencies, time.Since(start).Seconds()-t0)
					mu.Unlock()
					return nil
				}()
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		jobs <- cliBase.Fork(strconv.Itoa(i))
	}
	close(jobs)
	wwg.Wait()
	wall := time.Since(start)
	_ = ln.Close()
	awg.Wait()

	run := lgRun{
		Name: "baseline", Mode: "baseline",
		Sessions: sessions, Conns: workers,
		WallSec: wall.Seconds(),
		Settled: settled, Failed: failed,
		P50Ms: lgQuantileMs(latencies, 0.50),
		P99Ms: lgQuantileMs(latencies, 0.99),
	}
	if s := wall.Seconds(); s > 0 {
		run.SessionsPerSec = float64(settled) / s
	}
	return run, nil
}

// runLoadgen executes the suite selected by the lg flags and applies
// the hard invariants inline, so a bare `tlcbench -lg-smoke` is a
// pass/fail gate without any report post-processing.
func runLoadgen() {
	p, err := lgSetup()
	if err != nil {
		fatalf("loadgen: %v", err)
	}
	shardCounts := parseShards(*flagLGShards)
	sessions := *flagLGSessions
	// Rate/peak runs size MaxPending to the offered load: these runs
	// measure engine throughput below the admission cap, so queue
	// depth must not be the limiter (the overload run measures the
	// opposite on purpose).
	suiteStart := time.Now()
	report := lgReport{GoMaxProcs: runtime.GOMAXPROCS(0)}
	addRun := func(run lgRun, err error) lgRun {
		if err != nil {
			fatalf("loadgen: %v", err)
		}
		fmt.Printf("== loadgen %-14s %8d sessions  %8.0f sess/sec  settled=%d rejected=%d failed=%d forged_verified=%d peak=%d p99=%.1fms (%.2fs)\n",
			run.Name, run.Sessions, run.SessionsPerSec, run.Settled, run.Rejected,
			run.Failed, run.ForgedVerified, run.PeakActive, run.P99Ms, run.WallSec)
		report.Runs = append(report.Runs, run)
		return run
	}
	mustZeroRejected := func(run lgRun) {
		if run.Rejected != 0 || run.Failed != 0 {
			fatalf("loadgen: %s rejected/failed = %d/%d below the admission cap, want 0/0",
				run.Name, run.Rejected, run.Failed)
		}
	}

	for _, sc := range shardCounts {
		run := addRun(lgMuxRun(p, lgMuxSpec{
			name:     "mux_shards" + strconv.Itoa(sc),
			sessions: sessions, conns: *flagLGConns,
			shards: sc, wrk: *flagLGWorkers,
			maxPending: sessions,
		}))
		mustZeroRejected(run)
	}

	if *flagLGLedger {
		// Durability on vs off: the same mux load with every settled
		// proof appended to a real on-disk ledger, at a tight and a
		// relaxed group-commit window. The replayed record count must
		// equal the settled count — durability that silently drops
		// settlements would be worse than none.
		for _, syncEvery := range []int{1, 16} {
			run := addRun(lgMuxRun(p, lgMuxSpec{
				name:     "mux_ledger_sync" + strconv.Itoa(syncEvery),
				sessions: sessions, conns: *flagLGConns,
				shards: shardCounts[len(shardCounts)-1], wrk: *flagLGWorkers,
				maxPending: sessions, ledgerSync: syncEvery,
			}))
			mustZeroRejected(run)
			if run.LedgerRecords != run.Settled {
				fatalf("loadgen: %s ledger holds %d proofs, want %d settled",
					run.Name, run.LedgerRecords, run.Settled)
			}
		}
	}

	if !*flagLGSmoke {
		base := *flagLGBaseline
		if base == 0 {
			base = sessions / 4
			if base > 5000 {
				base = 5000
			}
		}
		addRun(lgBaselineRun(p, base, 64))

		if *flagLGPeak > 0 {
			run := addRun(lgMuxRun(p, lgMuxSpec{
				name:     "peak",
				sessions: *flagLGPeak, conns: *flagLGConns,
				shards: shardCounts[len(shardCounts)-1], wrk: *flagLGWorkers,
				maxPending: *flagLGPeak, openFirst: true,
			}))
			mustZeroRejected(run)
			if run.PeakActive != int64(run.Settled) {
				fatalf("loadgen: peak run held %d sessions resident, want %d", run.PeakActive, run.Settled)
			}
		}

		// Overload: 8x the admission cap; the engine must split the
		// load into settlements and typed rejections, not collapse.
		overCap := 1024
		over := addRun(lgMuxRun(p, lgMuxSpec{
			name:     "overload",
			sessions: overCap * 8, conns: *flagLGConns,
			shards: shardCounts[len(shardCounts)-1], wrk: *flagLGWorkers,
			maxSessions: overCap, maxPending: 64, openFirst: true,
		}))
		if over.Rejected == 0 {
			fatalf("loadgen: overload run saw no admission rejections")
		}
		if over.Settled == 0 {
			fatalf("loadgen: overload run settled nothing — engine collapsed")
		}

		forged := addRun(lgMuxRun(p, lgMuxSpec{
			name:     "forged",
			sessions: 512, conns: *flagLGConns,
			shards: shardCounts[len(shardCounts)-1], wrk: *flagLGWorkers,
			maxPending: 512, forged: 64,
		}))
		if forged.ForgedSent != 64 || forged.ForgedRejected != 64 {
			fatalf("loadgen: forged sent/rejected = %d/%d, want 64/64",
				forged.ForgedSent, forged.ForgedRejected)
		}
	}

	for _, run := range report.Runs {
		if run.ForgedVerified != 0 {
			fatalf("loadgen: %s verified %d forged PoCs — charging integrity broken", run.Name, run.ForgedVerified)
		}
	}
	report.TotalSec = time.Since(suiteStart).Seconds()
	report.Note = fmt.Sprintf("loopback loadgen, GOMAXPROCS=%d", report.GoMaxProcs)

	if *flagLGJSON != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatalf("loadgen: marshal report: %v", err)
		}
		data = append(data, '\n')
		if *flagLGJSON == "-" {
			if _, err := os.Stdout.Write(data); err != nil {
				fatalf("loadgen: write report: %v", err)
			}
		} else if err := os.WriteFile(*flagLGJSON, data, 0o644); err != nil {
			fatalf("loadgen: write %s: %v", *flagLGJSON, err)
		}
	}
}

// lgCheck validates a checked-in loadgen report: schema, the
// charging-integrity invariant (zero forged PoCs verified), overload
// behaviour (rejection, not collapse) and the engine's throughput win
// over the conn-per-session baseline. verify.sh runs it so a stale or
// hand-edited BENCH_tlcd_scale.json fails loudly.
func lgCheck(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("lg-check: %v", err)
	}
	var rep lgReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fatalf("lg-check: %s: %v", path, err)
	}
	byName := make(map[string]lgRun, len(rep.Runs))
	for _, run := range rep.Runs {
		if run.ForgedVerified != 0 {
			fatalf("lg-check: %s: run %s verified %d forged PoCs", path, run.Name, run.ForgedVerified)
		}
		if run.Name == "" || run.Sessions <= 0 || run.WallSec <= 0 {
			fatalf("lg-check: %s: run %q malformed (sessions=%d wall=%gs)", path, run.Name, run.Sessions, run.WallSec)
		}
		byName[run.Name] = run
	}
	need := func(name string) lgRun {
		run, ok := byName[name]
		if !ok {
			fatalf("lg-check: %s: missing run %q (have %s)", path, name, lgRunNames(rep.Runs))
		}
		return run
	}

	base := need("baseline")
	if base.SessionsPerSec <= 0 || base.Settled == 0 {
		fatalf("lg-check: %s: baseline settled nothing", path)
	}
	muxRuns := 0
	for _, run := range rep.Runs {
		if !strings.HasPrefix(run.Name, "mux_shards") {
			continue
		}
		muxRuns++
		if run.SessionsPerSec <= base.SessionsPerSec {
			fatalf("lg-check: %s: %s at %.0f sess/sec does not beat baseline %.0f",
				path, run.Name, run.SessionsPerSec, base.SessionsPerSec)
		}
	}
	if muxRuns < 2 {
		fatalf("lg-check: %s: want >= 2 mux shard settings, found %d", path, muxRuns)
	}

	peak := need("peak")
	if peak.Sessions < 100_000 || peak.PeakActive < 100_000 {
		fatalf("lg-check: %s: peak run held %d/%d sessions, want >= 100000 resident",
			path, peak.PeakActive, peak.Sessions)
	}
	if peak.Settled != peak.Sessions {
		fatalf("lg-check: %s: peak run settled %d of %d", path, peak.Settled, peak.Sessions)
	}

	over := need("overload")
	if over.Rejected == 0 || over.Settled == 0 {
		fatalf("lg-check: %s: overload run rejected=%d settled=%d, want both > 0",
			path, over.Rejected, over.Settled)
	}

	forged := need("forged")
	if forged.ForgedSent == 0 || forged.ForgedRejected != forged.ForgedSent {
		fatalf("lg-check: %s: forged sent/rejected = %d/%d", path, forged.ForgedSent, forged.ForgedRejected)
	}
	fmt.Printf("lg-check: %s ok (%d runs; peak %d resident; mux beats baseline %.0f sess/sec)\n",
		path, len(rep.Runs), peak.PeakActive, base.SessionsPerSec)
}

func lgRunNames(runs []lgRun) string {
	names := make([]string, len(runs))
	for i, r := range runs {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}
