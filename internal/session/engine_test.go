package session

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"io"
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
	cases := []struct {
		name                    string
		sessions, conns, shards int
		maxPending              int
		openFirst               bool
	}{
		// Every claim is queued before any response, so resident
		// sessions peak at the full load.
		{name: "herd", sessions: 300, conns: 3, shards: 4, openFirst: true},
		// Sessions settle while later ones open, with the pending queue
		// sized to the load: nothing is refused below the session cap.
		{name: "steady_shards1", sessions: 2000, conns: 8, shards: 1, maxPending: 2000},
		{name: "steady_shards8", sessions: 2000, conns: 8, shards: 8, maxPending: 2000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			settledBefore := Metrics.Settled.Value()
			ec := operatorEngineConfig()
			ec.Shards = tc.shards
			ec.Workers = 2
			ec.MaxPending = tc.maxPending
			eng, addr, _ := startEngine(t, ec)

			conns := dialConns(t, addr, tc.conns)
			cc := edgeClientConfig(tc.sessions, conns)
			cc.OpenFirst = tc.openFirst
			var ticks atomic.Int64
			cc.Stopwatch = func() float64 { return float64(ticks.Add(1)) }
			res, err := RunClient(cc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Settled != tc.sessions || res.Rejected != 0 || res.Failed != 0 {
				t.Fatalf("settled/rejected/failed = %d/%d/%d, want %d/0/0",
					res.Settled, res.Rejected, res.Failed, tc.sessions)
			}
			if len(res.Latencies) != tc.sessions {
				t.Fatalf("latencies = %d, want %d", len(res.Latencies), tc.sessions)
			}
			if got := eng.PeakActive(); tc.openFirst && got != int64(tc.sessions) {
				t.Fatalf("peak active = %d, want %d", got, tc.sessions)
			}
			if got := Metrics.Settled.Value() - settledBefore; got != uint64(tc.sessions) {
				t.Fatalf("sessions_settled_total delta = %d, want %d", got, tc.sessions)
			}
			if got := Metrics.Active.Value(); got != 0 {
				t.Fatalf("sessions_active = %d after drain, want 0", got)
			}
		})
	}
}

// TestEngineForgetsSettledSessions: a conn that stays open retains no
// state for the sessions it settled, so the heap an open conn holds
// does not grow with the sessions it has carried. Each point is a
// fresh engine whose one conn is still open when the heap is read.
func TestEngineForgetsSettledSessions(t *testing.T) {
	heapAfter := func(sessions int) float64 {
		_, addr, stop := startEngine(t, operatorEngineConfig())
		conns := dialConns(t, addr, 1)
		cc := edgeClientConfig(sessions, conns)
		cc.OpenFirst = false
		res, err := RunClient(cc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Settled != sessions {
			t.Fatalf("settled = %d, want %d", res.Settled, sessions)
		}
		// Two collections: the first moves pooled buffers to the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_ = conns[0].Close()
		stop()
		return float64(ms.HeapAlloc)
	}
	const few, many = 500, 2500
	perSession := (heapAfter(many) - heapAfter(few)) / (many - few)
	// The bound leaves room for the shard maps, which keep the buckets
	// their peak residency grew, but not for a record per session.
	if perSession > 200 {
		t.Fatalf("an open conn retains %.0f B per settled session, want <= 200", perSession)
	}
}

// TestEngineClientAbort: a client's TypeReject fails its session once,
// and the session with the same sid on another conn settles untouched.
func TestEngineClientAbort(t *testing.T) {
	_, addr, _ := startEngine(t, operatorEngineConfig())
	failedBefore := Metrics.Failed.Value()
	edgeDER, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	cfg := edgeClientConfig(1, nil).Config
	type peer struct {
		conn net.Conn
		fr   *protocol.FrameReader
		m    protocol.Machine
		env  protocol.Env
		cda  []byte
	}
	send := func(p *peer, typ byte, payload []byte) {
		t.Helper()
		if err := protocol.WriteFrame(p.conn, AppendMux(nil, typ, 1, payload)); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(p *peer) (byte, []byte) {
		t.Helper()
		frame, err := p.fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil || sid != 1 {
			t.Fatalf("frame for sid %d: %v", sid, err)
		}
		return typ, payload
	}
	// Each conn opens sid 1; the engine's CDA shows it is resident.
	var peers [2]*peer
	for i, c := range dialConns(t, addr, 2) {
		p := &peer{conn: c, fr: protocol.NewFrameReader(c), env: protocol.Env{RNG: sim.NewRNG(int64(i))}}
		if err := protocol.WriteFrame(c, Hello(edgeDER)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		p.m.Init(&cfg, &opKeys.Private.PublicKey)
		if err := p.m.Start(&p.env, func(msg []byte) error { send(p, TypeData, msg); return nil }); err != nil {
			t.Fatal(err)
		}
		typ, cda := recv(p)
		if typ != TypeData {
			t.Fatalf("conn %d: answer type %d, want TypeData", i, typ)
		}
		p.cda = append([]byte(nil), cda...)
		peers[i] = p
	}

	// Abort twice, then hang up: the engine has read both aborts when
	// the conn reaches EOF.
	aborter := peers[0]
	send(aborter, TypeReject, []byte{RejectFailed})
	send(aborter, TypeReject, []byte{RejectFailed})
	if err := aborter.conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if typ, payload := recv(aborter); typ != TypeReject || payload[0] != RejectFailed {
		t.Fatalf("abort answered with type %d payload %v, want one RejectFailed", typ, payload)
	}
	if frame, err := aborter.fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after the abort: frame %v, err %v; want EOF", frame, err)
	}
	if got := Metrics.Failed.Value() - failedBefore; got != 1 {
		t.Fatalf("sessions_failed_total moved by %d, want 1", got)
	}

	// The other conn's sid 1 settles as if nothing happened.
	other := peers[1]
	finished, err := other.m.Handle(other.cda, &other.env, func(msg []byte) error {
		send(other, TypeData, msg)
		return nil
	})
	if err != nil || !finished {
		t.Fatalf("other conn's session: finished %v, err %v", finished, err)
	}
	typ, payload := recv(other)
	if typ != TypeDone || len(payload) != 8 || binary.BigEndian.Uint64(payload) != other.m.X() {
		t.Fatalf("other conn's session ended with type %d payload %v, want TypeDone X=%d", typ, payload, other.m.X())
	}
	if got := Metrics.Active.Value(); got != 0 {
		t.Fatalf("sessions_active = %d, want 0", got)
	}
	if got := Metrics.Failed.Value() - failedBefore; got != 1 {
		t.Fatalf("sessions_failed_total moved by %d, want 1", got)
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
