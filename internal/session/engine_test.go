package session

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

var (
	edgeKeys *poc.KeyPair
	opKeys   *poc.KeyPair
	testPlan = poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5}
	// testView settles at X=950 in one round under optimal/optimal.
	testView = core.View{Sent: 1000, Received: 900}
)

func init() {
	rng := sim.NewRNG(4321)
	var err error
	if edgeKeys, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("e")); err != nil {
		panic(err)
	}
	if opKeys, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("o")); err != nil {
		panic(err)
	}
}

func operatorEngineConfig() EngineConfig {
	return EngineConfig{
		Config: protocol.Config{
			Role: poc.RoleOperator, Plan: testPlan, Key: opKeys.Private,
			Strategy: core.OptimalStrategy{}, View: testView,
		},
		Seed: 99,
	}
}

func edgeClientConfig(sessions int, conns []net.Conn) ClientConfig {
	cc := ClientConfig{
		Config: protocol.Config{
			Role: poc.RoleEdge, Plan: testPlan, Key: edgeKeys.Private,
			Strategy: core.OptimalStrategy{}, View: testView,
		},
		Sessions:  sessions,
		Seed:      7,
		OpenFirst: true,
	}
	for _, c := range conns {
		cc.Conns = append(cc.Conns, c)
	}
	return cc
}

// startEngine serves a fresh engine on a loopback listener, sniffing
// each connection's first frame exactly as cmd/tlcd does.
func startEngine(t *testing.T, ec EngineConfig) (*Engine, string, func()) {
	t.Helper()
	eng, err := NewEngine(ec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				defer func() { _ = conn.Close() }()
				hello, err := protocol.ReadFrame(conn)
				if err != nil {
					return
				}
				_ = eng.ServeConn(conn, hello)
			}(conn)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = ln.Close()
			wg.Wait()
			eng.Stop()
		})
	}
	// Registered before the tests dial, so this cleanup runs after
	// their conns close — ServeConn readers exit before we wait on
	// them.
	t.Cleanup(stop)
	return eng, ln.Addr().String(), stop
}

func dialConns(t *testing.T, addr string, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		//tlcvet:allow simtime — real socket deadline so a wedged test fails instead of hanging
		_ = c.SetDeadline(time.Now().Add(2 * time.Minute))
		conns[i] = c
		t.Cleanup(func() { _ = c.Close() })
	}
	return conns
}

func TestEngineSettlesMuxedSessions(t *testing.T) {
	settledBefore := Metrics.Settled.Value()
	ec := operatorEngineConfig()
	ec.Shards = 4
	ec.Workers = 2
	eng, addr, _ := startEngine(t, ec)

	const sessions = 300
	conns := dialConns(t, addr, 3)
	cc := edgeClientConfig(sessions, conns)
	var ticks atomic.Int64
	cc.Stopwatch = func() float64 { return float64(ticks.Add(1)) }
	res, err := RunClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Settled != sessions || res.Rejected != 0 || res.Failed != 0 {
		t.Fatalf("settled/rejected/failed = %d/%d/%d, want %d/0/0",
			res.Settled, res.Rejected, res.Failed, sessions)
	}
	if len(res.Latencies) != sessions {
		t.Fatalf("latencies = %d, want %d", len(res.Latencies), sessions)
	}
	// OpenFirst holds every response until all claims are queued, so
	// the engine's resident count must peak at the full load.
	if got := eng.PeakActive(); got != sessions {
		t.Fatalf("peak active = %d, want %d", got, sessions)
	}
	// All three conns presented the same edge key: one parse, two
	// cache hits.
	if hits, misses := eng.KeyCacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("key cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
	if got := Metrics.Settled.Value() - settledBefore; got != sessions {
		t.Fatalf("sessions_settled_total delta = %d, want %d", got, sessions)
	}
	if got := Metrics.Active.Value(); got != 0 {
		t.Fatalf("sessions_active = %d after drain, want 0", got)
	}
}

// TestEngineOverloadRejectsNotCollapses is the admission-control
// regression run under -race by verify.sh: a load far beyond the
// session cap must split cleanly into settled + typed rejections —
// no deadlock, no goroutine leak, no unbounded queue growth.
func TestEngineOverloadRejectsNotCollapses(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ec := operatorEngineConfig()
	ec.Shards = 4
	ec.Workers = 2
	ec.MaxSessions = 64 // 16 per shard; load is 8x over capacity
	ec.MaxPending = 32
	eng, addr, stop := startEngine(t, ec)

	const sessions = 512
	conns := dialConns(t, addr, 2)
	res, err := RunClient(edgeClientConfig(sessions, conns))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Settled + res.Rejected + res.Failed; got != sessions {
		t.Fatalf("accounted sessions = %d, want %d (%+v)", got, sessions, res)
	}
	if res.Rejected == 0 {
		t.Fatalf("no admission rejections at 8x overload: %+v", res)
	}
	if res.Settled == 0 {
		t.Fatalf("overload collapsed the engine, nothing settled: %+v", res)
	}
	if got := eng.PeakActive(); got > 64 {
		t.Fatalf("peak active = %d, admission cap 64 not enforced", got)
	}

	for _, c := range conns {
		_ = c.Close()
	}
	stop()
	if got := Metrics.Active.Value(); got != 0 {
		t.Fatalf("sessions_active = %d after teardown, want 0", got)
	}
	// Every engine, conn and writer goroutine must be gone.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if i >= 100 {
			t.Fatalf("goroutine leak: %d now vs %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond) //tlcvet:allow simtime — waiting for real goroutines to park; wall clock is the only clock they run on
	}
}

func TestEngineRejectsForgedPoC(t *testing.T) {
	ec := operatorEngineConfig()
	_, addr, _ := startEngine(t, ec)

	const sessions, forged = 50, 7
	conns := dialConns(t, addr, 2)
	cc := edgeClientConfig(sessions, conns)
	cc.Forge = forged
	res, err := RunClient(cc)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForgedSent != forged || res.ForgedRejected != forged {
		t.Fatalf("forged sent/rejected = %d/%d, want %d/%d",
			res.ForgedSent, res.ForgedRejected, forged, forged)
	}
	if res.ForgedVerified != 0 {
		t.Fatalf("forged PoCs verified = %d: charging integrity broken", res.ForgedVerified)
	}
	if res.Settled != sessions-forged {
		t.Fatalf("settled = %d, want %d honest sessions", res.Settled, sessions-forged)
	}
}

// TestEngineRecorderCapturesSettlements pins the durable-record hook:
// every settled session hands the recorder a verifiable serialized PoC
// tagged with the peer-key fingerprint, whether this side signed the
// final proof or merely received it.
func TestEngineRecorderCapturesSettlements(t *testing.T) {
	var mu sync.Mutex
	var recs []ProofRecord
	ec := operatorEngineConfig()
	ec.Shards = 4
	ec.Workers = 2
	ec.Recorder = func(pr ProofRecord) {
		mu.Lock()
		recs = append(recs, pr)
		mu.Unlock()
	}
	_, addr, _ := startEngine(t, ec)

	const sessions = 40
	conns := dialConns(t, addr, 2)
	res, err := RunClient(edgeClientConfig(sessions, conns))
	if err != nil {
		t.Fatal(err)
	}
	if res.Settled != sessions {
		t.Fatalf("settled = %d, want %d", res.Settled, sessions)
	}

	edgeDER, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	fp := sha256.Sum256(edgeDER)
	wantFP := hex.EncodeToString(fp[:])

	mu.Lock()
	defer mu.Unlock()
	if len(recs) != sessions {
		t.Fatalf("recorder saw %d settlements, want %d", len(recs), sessions)
	}
	for _, pr := range recs {
		if pr.PeerFP != wantFP {
			t.Fatalf("record fingerprint %q, want %q", pr.PeerFP, wantFP)
		}
		if len(pr.Proof) == 0 {
			t.Fatalf("record for sid %d carries no proof bytes", pr.SID)
		}
		var proof poc.PoC
		if err := proof.UnmarshalBinary(pr.Proof); err != nil {
			t.Fatalf("sid %d proof does not decode: %v", pr.SID, err)
		}
		if err := poc.VerifyStateless(&proof, testPlan,
			&edgeKeys.Private.PublicKey, &opKeys.Private.PublicKey); err != nil {
			t.Fatalf("sid %d recorded proof does not verify: %v", pr.SID, err)
		}
		if proof.X != pr.X {
			t.Fatalf("sid %d record X=%d but proof X=%d", pr.SID, pr.X, proof.X)
		}
	}
}

func TestEngineStoppedRejectsNewSessions(t *testing.T) {
	ec := operatorEngineConfig()
	eng, addr, _ := startEngine(t, ec)

	conns := dialConns(t, addr, 1)
	// First a healthy session to prove the path, then stop and retry.
	if res, err := RunClient(edgeClientConfig(1, conns)); err != nil || res.Settled != 1 {
		t.Fatalf("pre-stop run: %+v, %v", res, err)
	}
	eng.Stop()
	conns2 := dialConns(t, addr, 1)
	res, err := RunClient(edgeClientConfig(1, conns2))
	if err != nil {
		// The listener may already refuse the handshake — also fine.
		return
	}
	if res.Settled != 0 {
		t.Fatalf("stopped engine settled a session: %+v", res)
	}
}
