package session

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/metrics"
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
		name            string
		sessions, conns int
		openFirst       bool
	}{
		// Every claim is queued before any response, so resident
		// sessions peak at the full load.
		{name: "herd", sessions: 300, conns: 3, openFirst: true},
		// Sessions settle while later ones open: nothing is refused
		// below the session cap. Each conn holds its own sessions, so
		// the conn count is the number of session-table shards.
		{name: "steady_shards1", sessions: 2000, conns: 1},
		{name: "steady_shards8", sessions: 2000, conns: 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			settledBefore := Metrics.Settled.Value()
			eng, addr, _ := startEngine(t, operatorEngineConfig())

			conns := dialConns(t, addr, tc.conns)
			cc := edgeClientConfig(tc.sessions, conns)
			cc.OpenFirst = tc.openFirst
			res, err := RunClient(cc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Settled != tc.sessions || res.Rejected != 0 || res.Failed != 0 {
				t.Fatalf("settled/rejected/failed = %d/%d/%d, want %d/0/0",
					res.Settled, res.Rejected, res.Failed, tc.sessions)
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
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		_ = conns[0].Close()
		stop()
		return float64(ms.HeapAlloc)
	}
	const few, many = 500, 2500
	perSession := (heapAfter(many) - heapAfter(few)) / (many - few)
	// The bound leaves room for the conn's session map, which keeps the
	// buckets its peak residency grew, but not for a record per session.
	if perSession > 200 {
		t.Fatalf("an open conn retains %.0f B per settled session, want <= 200", perSession)
	}
}

// TestEngineClientAbort: a client's TypeReject fails its session once,
// and the session with the same sid on another conn settles untouched.
func TestEngineClientAbort(t *testing.T) {
	_, addr, _ := startEngine(t, operatorEngineConfig())
	failedBefore := Metrics.Failed.Value()
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
	// Each conn opens sid 1; the engine's CDA shows it is resident.
	var peers [2]*peer
	for i, c := range dialConns(t, addr, 2) {
		p := &peer{conn: c, fr: sayHello(t, c), env: protocol.Env{RNG: sim.NewRNG(int64(i))}}
		p.m.Init(&cfg, &opKeys.Private.PublicKey)
		if err := p.m.Start(&p.env, func(msg []byte) error { send(p, TypeData, msg); return nil }); err != nil {
			t.Fatal(err)
		}
		typ, cda := recvSid1(t, p.fr)
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
	if typ, payload := recvSid1(t, aborter.fr); typ != TypeReject || payload[0] != RejectFailed {
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
	typ, payload := recvSid1(t, other.fr)
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

// TestEngineSettlesFramesReadBeforeHangUp: a peer that sends the final
// PoC of every session in one write and then hangs up gets each one
// acked with TypeDone and recorded. The conn's EOF comes right after
// those PoCs, so no session whose final PoC the engine read may be
// evicted unsettled.
func TestEngineSettlesFramesReadBeforeHangUp(t *testing.T) {
	var mu sync.Mutex
	recorded := map[uint64]bool{}
	ec := operatorEngineConfig()
	ec.Recorder = func(pr ProofRecord) {
		mu.Lock()
		recorded[pr.SID] = true
		mu.Unlock()
	}
	peer, served := serveOne(t, startedEngine(t, ec))
	fr := sayHello(t, peer)

	const sessions = 50
	cfg := edgeClientConfig(1, nil).Config
	env := protocol.Env{RNG: sim.NewRNG(5)}
	var batch bytes.Buffer
	send := func(sid uint64) func([]byte) error {
		return func(msg []byte) error {
			return protocol.WriteFrame(&batch, AppendMux(nil, TypeData, sid, msg))
		}
	}
	flush := func() {
		t.Helper()
		if _, err := peer.Write(batch.Bytes()); err != nil {
			t.Fatal(err)
		}
		batch.Reset()
	}
	machines := make([]protocol.Machine, sessions+1) // by sid
	for sid := uint64(1); sid <= sessions; sid++ {
		machines[sid].Init(&cfg, &opKeys.Private.PublicKey)
		if err := machines[sid].Start(&env, send(sid)); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	cdas := map[uint64][]byte{}
	for len(cdas) < sessions {
		frame, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil || typ != TypeData || sid < 1 || sid > sessions {
			t.Fatalf("answer to a claim: type %d sid %d err %v, want a CDA", typ, sid, err)
		}
		cdas[sid] = append([]byte(nil), payload...)
	}
	for sid := uint64(1); sid <= sessions; sid++ {
		if finished, err := machines[sid].Handle(cdas[sid], &env, send(sid)); err != nil || !finished {
			t.Fatalf("sid %d final PoC: finished %v, err %v", sid, finished, err)
		}
	}
	flush()
	if err := peer.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	done, other := 0, ""
	for {
		frame, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		typ, sid, payload, err := DecodeMux(frame)
		switch {
		case err == nil && typ == TypeDone && sid >= 1 && sid <= sessions &&
			len(payload) == 8 && binary.BigEndian.Uint64(payload) == machines[sid].X():
			done++
		case other == "":
			other = fmt.Sprintf("; sid %d ended with type %d payload %q (err %v)", sid, typ, payload, err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeConn = %v, want a clean hang-up", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if done != sessions || len(recorded) != sessions {
		t.Fatalf("%d TypeDone and %d recorded of %d sessions whose final PoC was sent%s",
			done, len(recorded), sessions, other)
	}
}

// TestEvictConnFailsEverySession: a conn's teardown fails every session
// it still holds with RejectShutdown and returns sessions_active to 0.
// The conn state is opened from a hello and fed its claims on the
// test's goroutine, with no socket and no writer, so the engine's
// answers stay in its out buffer behind the key frame.
func TestEvictConnFailsEverySession(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	edgeDER, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eng.newMuxConn(Hello(edgeDER))
	if err != nil {
		t.Fatal(err)
	}
	failedBefore := Metrics.Failed.Value()
	cfg := edgeClientConfig(1, nil).Config
	env := protocol.Env{RNG: sim.NewRNG(2)}
	const sessions = 16
	for sid := uint64(1); sid <= sessions; sid++ {
		var m protocol.Machine
		m.Init(&cfg, &opKeys.Private.PublicKey)
		if err := m.Start(&env, func(claim []byte) error { return c.handle(AppendMux(nil, TypeData, sid, claim)) }); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.sessions) != sessions || eng.active.Load() != sessions {
		t.Fatalf("%d sessions on the conn, %d active; want %d", len(c.sessions), eng.active.Load(), sessions)
	}

	c.evict(nil)

	if len(c.sessions) != 0 || eng.active.Load() != 0 || Metrics.Active.Value() != 0 {
		t.Fatalf("after evict: %d on the conn, %d active, sessions_active %d; want 0",
			len(c.sessions), eng.active.Load(), Metrics.Active.Value())
	}
	if got := Metrics.Failed.Value() - failedBefore; got != sessions {
		t.Fatalf("sessions_failed_total moved by %d, want %d", got, sessions)
	}
	fr := protocol.NewFrameReader(bytes.NewReader(c.out))
	if key, err := fr.ReadFrame(); err != nil || !bytes.Equal(key, eng.ownDER) {
		t.Fatalf("first frame %q (err %v), want the engine's key", key, err)
	}
	cdas, shutdown := map[uint64]bool{}, map[uint64]bool{}
	for {
		frame, err := fr.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		typ, sid, payload, err := DecodeMux(frame)
		switch {
		case err == nil && typ == TypeData && !shutdown[sid]:
			cdas[sid] = true
		case err == nil && typ == TypeReject && len(payload) > 0 && payload[0] == RejectShutdown:
			shutdown[sid] = true
		default:
			t.Fatalf("queued frame type %d sid %d payload %q (err %v)", typ, sid, payload, err)
		}
	}
	if len(cdas) != sessions || len(shutdown) != sessions || c.frames != 2*sessions {
		t.Fatalf("queued %d CDAs and %d RejectShutdown in %d frames, want %d of each", len(cdas), len(shutdown), c.frames, sessions)
	}
}

// TestEngineOverloadRejectsNotCollapses is the admission-control
// regression run under -race by verify.sh: a load far beyond the
// session cap must split cleanly into settled + typed rejections —
// no deadlock, no goroutine leak, no unbounded queue growth.
func TestEngineOverloadRejectsNotCollapses(t *testing.T) {
	baseline := runtime.NumGoroutine()

	ec := operatorEngineConfig()
	ec.MaxSessions = 64 // load is 8x over capacity
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

// startedEngine builds and starts an engine that is stopped when the
// test ends.
func startedEngine(t *testing.T, ec EngineConfig) *Engine {
	t.Helper()
	eng, err := NewEngine(ec)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	t.Cleanup(eng.Stop)
	return eng
}

// serveOne serves the next conn on a fresh loopback listener with eng
// and reports ServeConn's result on the returned channel; the served
// end is closed once ServeConn returns. It returns the dialled end.
func serveOne(t *testing.T, eng *Engine) (*net.TCPConn, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		first, err := protocol.ReadFrame(conn)
		if err == nil {
			err = eng.ServeConn(conn, first)
		}
		_ = conn.Close() // ServeConn's result is what the test checks
		served <- err
	}()
	return dialConns(t, ln.Addr().String(), 1)[0].(*net.TCPConn), served
}

// sayHello opens a mux conn as the edge: its hello out, the engine's
// key frame back. It returns the reader for the engine's next frames.
func sayHello(t *testing.T, c net.Conn) *protocol.FrameReader {
	t.Helper()
	der, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(c, Hello(der)); err != nil {
		t.Fatal(err)
	}
	fr := protocol.NewFrameReader(c)
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatalf("engine key frame: %v", err)
	}
	return fr
}

// recvSid1 reads the engine's next mux frame, which must be for sid 1.
func recvSid1(t *testing.T, fr *protocol.FrameReader) (typ byte, payload []byte) {
	t.Helper()
	frame, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	typ, sid, payload, err := DecodeMux(frame)
	if err != nil || sid != 1 {
		t.Fatalf("frame for sid %d: %v", sid, err)
	}
	return typ, payload
}

// truncatedFrame is a valid header announcing 100 body bytes, followed
// by only 3 of them.
func truncatedFrame() []byte {
	frame := append(make([]byte, protocol.FrameHeaderSize), bytes.Repeat([]byte{9}, 100)...)
	protocol.PutFrameHeader(frame)
	return frame[:protocol.FrameHeaderSize+3]
}

// protocolCounters snapshots every protocol_*_total counter.
func protocolCounters() map[string]float64 {
	out := map[string]float64{}
	for name, v := range metrics.Default.Snapshot() {
		if strings.HasPrefix(name, "protocol_") && strings.HasSuffix(name, "_total") {
			out[name] = v
		}
	}
	return out
}

// checkCounterDeltas compares every protocol_*_total counter's change
// since before against want; counters absent from want must not move.
func checkCounterDeltas(t *testing.T, before, want map[string]float64) {
	t.Helper()
	after := protocolCounters()
	for name := range want {
		if _, ok := after[name]; !ok {
			t.Errorf("no counter %s", name)
		}
	}
	for name, v := range after {
		if got := v - before[name]; got != want[name] {
			t.Errorf("%s moved by %v, want %v", name, got, want[name])
		}
	}
}

// TestEngineRefusesBareKeyConn: a first frame that is not a TLCMUX1
// hello, such as a bare PKIX key, is refused with ErrNotHello before
// the engine writes anything, and no session opens.
func TestEngineRefusesBareKeyConn(t *testing.T) {
	eng := startedEngine(t, operatorEngineConfig())
	opened0 := Metrics.Opened.Value()
	der, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	peer, served := serveOne(t, eng)
	if err := protocol.WriteFrame(peer, der); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, ErrNotHello) {
		t.Fatalf("ServeConn = %v, want ErrNotHello", err)
	}
	if n, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after a bare key = %d bytes, %v; want EOF and no key frame", n, err)
	}
	if got := Metrics.Opened.Value() - opened0; got != 0 {
		t.Fatalf("sessions_opened_total moved by %d, want 0", got)
	}
}

// TestEngineFailsByzantineMuxPeers: a client that answers the engine's
// CDA with a forged PoC, or dies mid-frame, moves the same protocol_*
// counters as the matching row of protocol's TestRunOutcomeAccounting,
// and the engine ends its session with a TypeReject.
func TestEngineFailsByzantineMuxPeers(t *testing.T) {
	eng := startedEngine(t, operatorEngineConfig())
	op := &protocol.Party{
		Role: poc.RoleOperator, Plan: testPlan, Keys: opKeys, PeerKey: &edgeKeys.Private.PublicKey,
		Strategy: core.OptimalStrategy{}, View: testView, RNG: sim.NewRNG(29),
	}
	edge := &protocol.Party{
		Role: poc.RoleEdge, Plan: testPlan, Keys: edgeKeys, PeerKey: &opKeys.Private.PublicKey,
		Strategy: core.OptimalStrategy{}, View: testView, RNG: sim.NewRNG(30),
	}
	earlier, _, err := protocol.RunPair(op, edge)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := earlier.PoC.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cfg := edgeClientConfig(1, nil).Config
	sendPoC := func(forge func(proof []byte) ([]byte, error)) func(*net.TCPConn, []byte) error {
		return func(c *net.TCPConn, proof []byte) error {
			forged, err := forge(proof)
			if err != nil {
				return err
			}
			return protocol.WriteFrame(c, AppendMux(nil, TypeData, 1, forged))
		}
	}
	const (
		started   = "protocol_negotiations_started_total"
		failed    = "protocol_negotiations_failed_total"
		staleRej  = "protocol_stale_proof_rejections_total"
		byzRej    = "protocol_byzantine_rejections_total"
		truncated = "protocol_frame_truncations_total"
	)
	cases := []struct {
		name string
		// answer replaces the honest PoC the client would send next.
		answer func(c *net.TCPConn, proof []byte) error
		code   byte  // the engine's reject
		served error // what ServeConn returns
		deltas map[string]float64
	}{
		{"replay", sendPoC(func([]byte) ([]byte, error) { return stale, nil }), RejectFailed, nil,
			map[string]float64{started: 1, failed: 1, staleRej: 1}},
		{"tamper", sendPoC(func(p []byte) ([]byte, error) {
			p[len(p)-1] ^= 0xff // inside the outer signature
			return p, nil
		}), RejectFailed, nil,
			map[string]float64{started: 1, failed: 1, byzRej: 1}},
		{"inflate", sendPoC(func(p []byte) ([]byte, error) {
			var proof poc.PoC
			if err := proof.UnmarshalBinary(p); err != nil {
				return nil, err
			}
			proof.X = proof.X*2 + 1<<20 // after signing
			return proof.MarshalBinary()
		}), RejectFailed, nil,
			map[string]float64{started: 1, failed: 1, byzRej: 1}},
		{"truncated", func(c *net.TCPConn, _ []byte) error {
			if _, err := c.Write(truncatedFrame()); err != nil {
				return err
			}
			return c.CloseWrite()
		}, RejectShutdown, protocol.ErrFrameTruncated,
			map[string]float64{started: 1, failed: 1, truncated: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := protocolCounters()
			peer, served := serveOne(t, eng)
			fr := sayHello(t, peer)
			var m protocol.Machine
			env := protocol.Env{RNG: sim.NewRNG(31)}
			m.Init(&cfg, &opKeys.Private.PublicKey)
			if err := m.Start(&env, func(msg []byte) error {
				return protocol.WriteFrame(peer, AppendMux(nil, TypeData, 1, msg))
			}); err != nil {
				t.Fatal(err)
			}
			typ, cda := recvSid1(t, fr)
			if typ != TypeData {
				t.Fatalf("answer to the claim: type %d, want TypeData", typ)
			}
			var proof []byte
			if _, err := m.Handle(cda, &env, func(msg []byte) error { proof = msg; return nil }); err != nil || proof == nil {
				t.Fatalf("honest PoC: %v", err)
			}
			if err := tc.answer(peer, proof); err != nil {
				t.Fatalf("byzantine answer: %v", err)
			}
			if typ, payload := recvSid1(t, fr); typ != TypeReject || len(payload) == 0 || payload[0] != tc.code {
				t.Fatalf("session ended with type %d payload %q, want a TypeReject with code %d", typ, payload, tc.code)
			}
			_ = peer.Close() // the verdict is in; ServeConn's result is checked next
			if err := <-served; !errors.Is(err, tc.served) || (tc.served == nil && err != nil) {
				t.Fatalf("ServeConn = %v, want %v", err, tc.served)
			}
			checkCounterDeltas(t, before, tc.deltas)
		})
	}
	if got := Metrics.Active.Value(); got != 0 {
		t.Fatalf("sessions_active = %d after the failed peers, want 0", got)
	}
}

// TestEngineClientCauseKeepsRetryContract pins ClientResult.Cause to
// protocol.Transient's retry contract: an overload reject, a conn
// closed mid-session, a frame cut short and a frame that fails its
// checksum are transient; a forged PoC's RejectFailed is a verdict,
// which no retry changes.
func TestEngineClientCauseKeepsRetryContract(t *testing.T) {
	t.Run("overload", func(t *testing.T) {
		ec := operatorEngineConfig()
		ec.MaxSessions = 1
		_, addr, _ := startEngine(t, ec)
		// OpenFirst sends both claims before answering either, so the
		// first session is still resident when the second arrives.
		res, err := RunClient(edgeClientConfig(2, dialConns(t, addr, 1)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Settled != 1 || res.Rejected != 1 || !errors.Is(res.Cause, ErrOverload) || !protocol.Transient(res.Cause) {
			t.Fatalf("settled %d rejected %d cause %v; want 1, 1 and a transient ErrOverload", res.Settled, res.Rejected, res.Cause)
		}
	})
	// The server takes the hello and the opening claim, writes wire
	// and hangs up mid-session.
	corrupt := AppendMux(make([]byte, protocol.FrameHeaderSize), TypeData, 1, []byte{2, 0, 0})
	protocol.PutFrameHeader(corrupt)
	corrupt[len(corrupt)-1] ^= 0xff
	for _, tc := range []struct {
		name string
		wire []byte
		want error
	}{
		{"conn_closed", nil, io.EOF},
		{"truncated", truncatedFrame(), protocol.ErrFrameTruncated},
		{"corrupt", corrupt, protocol.ErrFrameCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opDER, err := x509.MarshalPKIXPublicKey(&opKeys.Private.PublicKey)
			if err != nil {
				t.Fatal(err)
			}
			client, server := net.Pipe()
			t.Cleanup(func() { _ = client.Close() })
			go func() {
				defer server.Close() //tlcvet:allow errdiscard — the hang-up is the fault under test
				if _, err := protocol.ReadFrame(server); err != nil {
					return
				}
				if err := protocol.WriteFrame(server, opDER); err != nil {
					return
				}
				if _, err := protocol.ReadFrame(server); err != nil { // the claim, left unanswered
					return
				}
				if len(tc.wire) > 0 {
					_, _ = server.Write(tc.wire)
				}
			}()
			res, err := RunClient(edgeClientConfig(1, []net.Conn{client}))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 || !errors.Is(res.Cause, tc.want) || !protocol.Transient(res.Cause) {
				t.Fatalf("failed %d cause %v; want 1 and a transient %v", res.Failed, res.Cause, tc.want)
			}
		})
	}
	t.Run("forged_poc", func(t *testing.T) {
		_, addr, _ := startEngine(t, operatorEngineConfig())
		cc := edgeClientConfig(1, dialConns(t, addr, 1))
		cc.Forge = 1
		res, err := RunClient(cc)
		if err != nil {
			t.Fatal(err)
		}
		if res.ForgedRejected != 1 || !errors.Is(res.Cause, protocol.ErrBadPeer) || protocol.Transient(res.Cause) {
			t.Fatalf("forged rejected %d cause %v; want 1 and a permanent verdict", res.ForgedRejected, res.Cause)
		}
	})
}
