package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc"
	"tlc/internal/faults"
	"tlc/internal/ledger"
	"tlc/internal/metrics"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/session"
)

// testParties generates a key pair per side and a shared plan/usage
// view, mirroring the CLI defaults the root e2e test drives.
func testParties(t *testing.T) (opKeys, edgeKeys *tlc.KeyPair, plan tlc.Plan, usage tlc.Usage) {
	t.Helper()
	var err error
	opKeys, err = tlc.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	edgeKeys, err = tlc.GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	end := time.Now().Truncate(time.Hour)
	plan = tlc.Plan{Start: end.Add(-time.Hour), End: end, C: 0.5}
	usage = tlc.Usage{Sent: 1_000_000, Received: 930_000}
	return opKeys, edgeKeys, plan, usage
}

// startOperator binds fresh loopback listeners and runs the operator
// on them, returning the negotiation and debug addresses plus the
// serveWith exit channel.
func startOperator(t *testing.T, op *operator, withDebug bool) (addr, debugAddr string, exited chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var debugLn net.Listener
	if withDebug {
		debugLn, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		debugAddr = debugLn.Addr().String()
	}
	exited = make(chan error, 1)
	go func() { exited <- op.serveWith(ln, debugLn) }()
	return ln.Addr().String(), debugAddr, exited
}

// stopOperator triggers the operator's shutdown and waits for it to
// drain and exit.
func stopOperator(t *testing.T, op *operator, exited chan error) {
	t.Helper()
	close(op.stop)
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("operator exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("operator did not drain and exit")
	}
}

func edgeSettle(t *testing.T, addr string, keys *tlc.KeyPair, plan tlc.Plan, usage tlc.Usage) error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return settle(conn, negotiationConfig(poc.RoleEdge, plan, keys, usage, tlc.Honest), "")
}

func scrapeMetric(t *testing.T, debugAddr, series string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", debugAddr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v, true
		}
	}
	return 0, false
}

// TestOperatorConcurrentConnsAndScrape is the regression test for the
// serial-accept bug plus the live observability surface: a client
// that connects and then goes silent must not block a second client
// from settling, and the settlement must be visible through a real
// HTTP scrape of /metrics.
func TestOperatorConcurrentConnsAndScrape(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	op := &operator{
		plan: plan, once: false, maxConns: 4,
		connTimeout: 30 * time.Second, drainTimeout: 5 * time.Second,
		muxTimeout: time.Minute,
		stop:       make(chan struct{}),
	}
	if err := op.newEngine(opKeys, usage, tlc.Honest, session.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	addr, debugAddr, exited := startOperator(t, op, true)

	// The stalling client: dials first, writes nothing. Under the old
	// serial accept loop this connection would own the listener for
	// its full deadline and the edge below could never settle.
	stalled, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test

	before := metrics.Default.Snapshot()["protocol_negotiations_settled_total"]
	if err := edgeSettle(t, addr, edgeKeys, plan, usage); err != nil {
		t.Fatalf("edge settle with a stalled peer in flight: %v", err)
	}

	after, ok := scrapeMetric(t, debugAddr, "protocol_negotiations_settled_total")
	if !ok {
		t.Fatal("protocol_negotiations_settled_total missing from /metrics")
	}
	if after < before+1 {
		t.Fatalf("settled counter did not advance: before=%v after=%v", before, after)
	}
	if v, ok := scrapeMetric(t, debugAddr, "protocol_negotiate_seconds_count"); !ok || v < 1 {
		t.Fatalf("negotiate latency histogram not observed: ok=%v v=%v", ok, v)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", debugAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/healthz content type %q", ct)
	}

	// Release the stalled peer so drain completes promptly, then stop.
	if err := stalled.Close(); err != nil {
		t.Fatal(err)
	}
	stopOperator(t, op, exited)
}

// TestOperatorOnceExits: with once set, serving a single negotiation
// ends the operator cleanly — the mode the root CLI e2e test relies
// on.
func TestOperatorOnceExits(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	op := &operator{
		plan: plan, once: true, maxConns: 4,
		connTimeout: 30 * time.Second, drainTimeout: 5 * time.Second,
		muxTimeout: time.Minute,
	}
	if err := op.newEngine(opKeys, usage, tlc.Honest, session.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	addr, _, exited := startOperator(t, op, false)
	if err := edgeSettle(t, addr, edgeKeys, plan, usage); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("operator exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("once-operator did not exit after first negotiation")
	}
}

// dialEdge dials the operator at addr with a one-minute deadline.
func dialEdge(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	return c
}

// runMuxLoad settles sessions over conns with session.RunClient and
// then closes the conns, so the operator's drain does not wait on
// them.
func runMuxLoad(t *testing.T, cfg protocol.Config, sessions int, conns ...io.ReadWriteCloser) *session.ClientResult {
	t.Helper()
	cc := session.ClientConfig{Config: cfg, Sessions: sessions, Seed: 7}
	for _, c := range conns {
		cc.Conns = append(cc.Conns, c)
	}
	res, err := session.RunClient(cc)
	for _, c := range conns {
		_ = c.Close() // the client is done with its conns; res and err decide the test
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOperatorServesEdgeAndMuxConns drives both kinds of client at one
// operator listener: tlcd's edge, which settles one session on its
// conn, and multiplexed conns carrying many sessions each.
func TestOperatorServesEdgeAndMuxConns(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	op := &operator{
		plan: plan, once: false, maxConns: 4,
		connTimeout: 30 * time.Second, drainTimeout: 30 * time.Second,
		muxTimeout: 2 * time.Minute,
		stop:       make(chan struct{}),
	}
	if err := op.newEngine(opKeys, usage, tlc.Optimal, session.EngineConfig{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	addr, _, exited := startOperator(t, op, false)

	if err := edgeSettle(t, addr, edgeKeys, plan, usage); err != nil {
		t.Fatalf("edge settle: %v", err)
	}

	const sessions = 40
	res := runMuxLoad(t, negotiationConfig(poc.RoleEdge, plan, edgeKeys, usage, tlc.Optimal), sessions,
		dialEdge(t, addr), dialEdge(t, addr))
	if res.Settled != sessions || res.Rejected != 0 || res.Failed != 0 {
		t.Fatalf("mux settled/rejected/failed = %d/%d/%d, want %d/0/0",
			res.Settled, res.Rejected, res.Failed, sessions)
	}
	stopOperator(t, op, exited)
}

// TestOperatorEdgeSettlesThroughStreamFaults: with stream faults on
// both ends, tlcd's edge settles its one session through them, and a
// second edge conn pipelines many. The operator's engine reads its
// faults.Conn on one goroutine while writing it on another, so under
// -race the wrapper must serialise its draws.
func TestOperatorEdgeSettlesThroughStreamFaults(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	// Half the writes stall; every read draws for corruption, which
	// never fires at this probability, so every session settles.
	spec := &faults.Spec{CorruptP: 1e-12, StallP: 0.5, StallFor: time.Millisecond}
	op := &operator{
		plan: plan, once: false, spec: spec, faultSeed: 11, maxConns: 4,
		connTimeout: 30 * time.Second, drainTimeout: 30 * time.Second,
		muxTimeout: time.Minute,
		stop:       make(chan struct{}),
	}
	if err := op.newEngine(opKeys, usage, tlc.Optimal, session.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	addr, _, exited := startOperator(t, op, false)
	cfg := negotiationConfig(poc.RoleEdge, plan, edgeKeys, usage, tlc.Optimal)

	edge := dialEdge(t, addr)
	rw, _ := wrapFaults(edge, spec, 1)
	err := settle(rw, cfg, "")
	_ = edge.Close() // settled or not, this edge is done; err decides the test
	if err != nil {
		t.Fatalf("edge settle through stream faults: %v", err)
	}

	const sessions = 200
	mux, _ := wrapFaults(dialEdge(t, addr), spec, 2)
	if res := runMuxLoad(t, cfg, sessions, mux); res.Settled != sessions {
		t.Fatalf("mux sessions through stream faults: %+v, want %d settled", res, sessions)
	}
	stopOperator(t, op, exited)
}

// TestOperatorEdgeRetriesThroughCorruption: an operator that damages
// what it reads (-faults corrupt=0.15) fails each frame whose checksum
// breaks, and the edge retries that as a transport fault, so at
// -retries 5 it settles at -fault-seed 7 (in 4 attempts) and 8 (in 3).
// Before frames carried a checksum, a damaged byte inside a signed
// message read as a forged signature: the operator rejected the
// session as failed, and the edge stopped after one attempt at both
// seeds.
func TestOperatorEdgeRetriesThroughCorruption(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	cfg := negotiationConfig(poc.RoleEdge, plan, edgeKeys, usage, tlc.Optimal)
	for _, seed := range []int64{7, 8} {
		op := &operator{
			plan: plan, once: false, spec: &faults.Spec{CorruptP: 0.15}, faultSeed: seed, maxConns: 4,
			connTimeout: 10 * time.Second, drainTimeout: 10 * time.Second,
			muxTimeout: time.Minute,
			stop:       make(chan struct{}),
		}
		if err := op.newEngine(opKeys, usage, tlc.Optimal, session.EngineConfig{}); err != nil {
			t.Fatal(err)
		}
		addr, _, exited := startOperator(t, op, false)
		attempts, err := runEdge(addr, cfg, "", nil, 1, 5, 10*time.Second)
		stopOperator(t, op, exited)
		if err != nil {
			t.Fatalf("-fault-seed %d: the edge gave up after %d attempt(s): %v", seed, attempts, err)
		}
		t.Logf("-fault-seed %d: settled in %d attempt(s)", seed, attempts)
	}
}

// lockedBuffer is a log destination the operator's goroutines may
// write while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestOperatorSeedsEachConnsFaults: the operator draws each accepted
// conn's stream faults from its own seed, -fault-seed plus the conn's
// accept index, so a fault that ends one edge's attempt does not end
// every retry at the same byte, and it logs one trace per accepted
// conn, however the conn ends. The first conn hangs up before its
// hello and writes nothing. Then two edges settle the same exchange in
// turn; each of their conns of the operator writes three times (the key
// frame, the CDA and the done ack), and at this seed the two conns
// stall one and two of those writes. Seeded alike, they would log the
// same trace.
func TestOperatorSeedsEachConnsFaults(t *testing.T) {
	var logs lockedBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	opKeys, edgeKeys, plan, usage := testParties(t)
	op := &operator{
		plan: plan, once: false, maxConns: 4,
		spec: &faults.Spec{StallP: 0.5, StallFor: time.Millisecond}, faultSeed: 5,
		connTimeout: 30 * time.Second, drainTimeout: 5 * time.Second,
		muxTimeout: time.Minute,
		stop:       make(chan struct{}),
	}
	if err := op.newEngine(opKeys, usage, tlc.Honest, session.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	addr, _, exited := startOperator(t, op, false)
	// Accepted first, since the edges dial after it: its hang-up
	// reaches the operator before either edge settles.
	hangUp, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := hangUp.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := edgeSettle(t, addr, edgeKeys, plan, usage); err != nil {
			t.Fatalf("edge %d: %v", i, err)
		}
	}
	stopOperator(t, op, exited)

	var traces []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if _, trace, ok := strings.Cut(line, "fault injection: "); ok {
			traces = append(traces, trace)
		}
	}
	if len(traces) != 3 || traces[0] == traces[1] || traces[0] == traces[2] || traces[1] == traces[2] {
		t.Fatalf("operator fault traces %q, want three that differ", traces)
	}
}

// TestOperatorLedgerAudit is the end-to-end durability path: an
// operator with a real on-disk ledger records the settlements of
// tlcd's edge and of a multiplexed conn through the engine Recorder,
// the shutdown flush closes the ledger, and the -audit query path
// reads the proofs back from the directory.
func TestOperatorLedgerAudit(t *testing.T) {
	opKeys, edgeKeys, plan, usage := testParties(t)
	dir := t.TempDir()
	led, err := ledger.Open(ledger.Options{Dir: dir, FS: ledger.DirFS{}, SyncEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cycle := uint64(plan.Start.Unix())
	op := &operator{
		plan: plan, once: false, maxConns: 4,
		connTimeout: 30 * time.Second, drainTimeout: 30 * time.Second,
		muxTimeout: 2 * time.Minute,
		stop:       make(chan struct{}),
	}
	op.led, op.cycle = led, cycle
	if err := op.newEngine(opKeys, usage, tlc.Optimal, session.EngineConfig{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	addr, _, exited := startOperator(t, op, false)

	// One edge settlement plus a batch of mux sessions.
	if err := edgeSettle(t, addr, edgeKeys, plan, usage); err != nil {
		t.Fatalf("edge settle: %v", err)
	}
	const sessions = 25
	res := runMuxLoad(t, negotiationConfig(poc.RoleEdge, plan, edgeKeys, usage, tlc.Optimal), sessions,
		dialEdge(t, addr))
	if res.Settled != sessions {
		t.Fatalf("mux settled = %d, want %d", res.Settled, sessions)
	}

	// Shutdown flushes the group-commit tail and closes the ledger.
	stopOperator(t, op, exited)
	if n := op.ledgerErrs.Load(); n != 0 {
		t.Fatalf("%d ledger appends failed", n)
	}

	// Audit the closed directory the way the CLI does; the subscriber
	// id is the edge key's PKIX fingerprint.
	pkixDER, err := x509.MarshalPKIXPublicKey(edgeKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(pkixDER)
	fp := hex.EncodeToString(sum[:])

	rep, err := ledger.Audit(ledger.DirFS{}, dir, fp, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.PoCs); got != sessions+1 {
		t.Fatalf("audit found %d PoCs, want %d (mux + edge)", got, sessions+1)
	}
	var settled uint64
	for i := range rep.PoCs {
		rec := &rep.PoCs[i]
		var proof poc.PoC
		if err := proof.UnmarshalBinary(rec.Proof); err != nil {
			t.Fatalf("poc[%d] does not decode: %v", i, err)
		}
		if err := poc.VerifyStateless(&proof,
			poc.Plan{TStart: plan.Start.UnixNano(), TEnd: plan.End.UnixNano(), C: plan.C},
			edgeKeys.Public(), opKeys.Public()); err != nil {
			t.Fatalf("poc[%d] from the audited ledger does not verify: %v", i, err)
		}
		if proof.X != rec.X {
			t.Fatalf("poc[%d] record X=%d but proof X=%d", i, rec.X, proof.X)
		}
		settled += rec.X
	}

	// The receipt archive's audit reads the same directory: Algorithm 2
	// with one replay set across the edge's and the mux sessions, and the
	// ledger's audit total equals the settled proofs'.
	archive, err := tlc.OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	arep, err := archive.Audit(edgeKeys.Public(), opKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	if err := archive.Close(); err != nil {
		t.Fatal(err)
	}
	if arep.Valid != sessions+1 || arep.Invalid != 0 || arep.TotalSettled != settled {
		t.Fatalf("archive audit = %d valid, %d invalid, %d bytes (failures %v); want %d valid, 0 invalid, %d bytes",
			arep.Valid, arep.Invalid, arep.TotalSettled, arep.Failures, sessions+1, settled)
	}

	// The CLI text path renders the same report.
	var out strings.Builder
	if err := runAudit(&out, dir, fmt.Sprintf("subscriber=%s,cycle=%d", fp, cycle)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%d PoC(s)", sessions+1)) {
		t.Fatalf("audit output missing PoC count:\n%s", out.String())
	}

	// Bad queries fail loudly.
	if err := runAudit(io.Discard, dir, "cycle=zap"); err == nil {
		t.Fatal("malformed -audit query accepted")
	}
	if err := runAudit(io.Discard, dir, "subscriber=x"); err == nil {
		t.Fatal("-audit without cycle accepted")
	}
	// A mistyped -ledger-dir names the path instead of pretending the
	// ledger is merely empty.
	err = runAudit(io.Discard, dir+"-no-such", "subscriber=x,cycle=1")
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing -ledger-dir: err = %v, want a does-not-exist diagnosis", err)
	}
}

// TestOperatorStopWithoutTraffic: the shutdown trigger alone (the
// test stand-in for SIGTERM) must stop an idle operator promptly.
func TestOperatorStopWithoutTraffic(t *testing.T) {
	opKeys, _, plan, usage := testParties(t)
	op := &operator{
		plan: plan, once: false, maxConns: 4,
		connTimeout: time.Second, drainTimeout: time.Second,
		stop: make(chan struct{}),
	}
	if err := op.newEngine(opKeys, usage, tlc.Honest, session.EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	_, _, exited := startOperator(t, op, false)
	close(op.stop)
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("operator exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle operator did not exit on stop")
	}
}

// wantFlagRefused builds the real binary and runs it with args: it
// must exit 2 at startup with a message naming flag. A binary that
// starts serving instead is killed after ten seconds.
func wantFlagRefused(t *testing.T, flag string, args ...string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tlcd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building tlcd: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("tlcd %s: %v, want exit status 2; stderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	if !strings.Contains(stderr.String(), flag) {
		t.Fatalf("tlcd %s: stderr %q does not name %s", strings.Join(args, " "), stderr.String(), flag)
	}
}

// TestRefusesMaxConnsBelowOne: 0 made acceptLoop's semaphore
// unbuffered, so the first accepted conn blocked forever; a negative
// value panicked in make.
func TestRefusesMaxConnsBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		wantFlagRefused(t, "-max-conns", "-max-conns", v)
	}
}

// TestRefusesConnTimeoutNotPositive: a deadline of now times out every
// read on every conn.
func TestRefusesConnTimeoutNotPositive(t *testing.T) {
	for _, v := range []string{"0s", "-1s"} {
		wantFlagRefused(t, "-conn-timeout", "-conn-timeout", v)
	}
}

// TestRefusesMuxConnTimeoutNotPositive is the same for multiplexed
// conns.
func TestRefusesMuxConnTimeoutNotPositive(t *testing.T) {
	for _, v := range []string{"0s", "-1s"} {
		wantFlagRefused(t, "-mux-conn-timeout", "-mux-conn-timeout", v)
	}
}

// TestRefusesLedgerFsyncBelowOne: the ledger's default turned 0 into
// an fsync every 16 appends while tlcd logged "fsync every 0".
func TestRefusesLedgerFsyncBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		wantFlagRefused(t, "-ledger-fsync", "-ledger-fsync", v)
	}
}

// TestRefusesPlanItsVerifierRefuses: an operator and an edge at -c 1.5
// settled a proof, and so did an empty cycle (-cycle-dur -1h), though
// tlcverify refuses both plans.
func TestRefusesPlanItsVerifierRefuses(t *testing.T) {
	for _, v := range []string{"1.5", "-0.5"} {
		wantFlagRefused(t, "-c", "-c", v)
	}
	for _, v := range []string{"0s", "-1h"} {
		wantFlagRefused(t, "-cycle-dur", "-cycle-dur", v)
	}
}

// TestRefusesRetriesBelowOne: the retrier's default turned 0 into 3
// attempts.
func TestRefusesRetriesBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		wantFlagRefused(t, "-retries", "-retries", v)
	}
}

// TestRefusesMaxSessionsBelowOne: the engine's default turned 0 into a
// cap of 1<<20 sessions.
func TestRefusesMaxSessionsBelowOne(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		wantFlagRefused(t, "-max-sessions", "-max-sessions", v)
	}
}
