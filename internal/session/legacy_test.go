package session

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/metrics"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// Tests for legacy conns: the peer opens with its bare PKIX key, the
// engine answers with its own, opens the conn's one session and
// exchanges bare protocol frames until that session ends, then closes
// the conn.

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

// serveLegacy serves one end of a pipe with eng and plays the legacy
// key exchange on the other: the edge's bare key frame out, the
// engine's key frame back. It returns the edge's end, ready for the
// operator's opening claim, and the channel ServeConn's result
// arrives on. The served end is closed here only when ServeConn fails;
// a nil result must come with the engine's own close.
func serveLegacy(t *testing.T, eng *Engine) (net.Conn, <-chan error) {
	t.Helper()
	peer, srv := net.Pipe()
	t.Cleanup(func() { _ = peer.Close() })
	//tlcvet:allow simtime — real pipe deadline so a wedged test fails instead of hanging
	if err := peer.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		first, err := protocol.ReadFrame(srv)
		if err == nil {
			err = eng.ServeConn(srv, first)
		}
		if err != nil {
			_ = srv.Close() // unblocks the peer; the error is what the test checks
		}
		served <- err
	}()
	der, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := protocol.WriteFrame(peer, der); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.ReadFrame(peer); err != nil {
		t.Fatalf("engine key frame: %v", err)
	}
	return peer, served
}

// requireClosed asserts that the engine hung up on peer: the next read
// returns EOF, not the pipe deadline's timeout.
func requireClosed(t *testing.T, peer net.Conn) {
	t.Helper()
	if n, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after the session = %d bytes, %v; want EOF from the engine's close", n, err)
	}
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

// TestEngineSettlesLegacyConn: an honest protocol.Party edge settles
// on a legacy conn, the recorder gets a proof that verifies, the
// engine times the session, and then it closes the conn.
func TestEngineSettlesLegacyConn(t *testing.T) {
	recs := make(chan ProofRecord, 1)
	ec := operatorEngineConfig()
	var ticks atomic.Int64
	ec.Stopwatch = func() float64 { return float64(ticks.Add(1)) }
	ec.Recorder = func(pr ProofRecord) { recs <- pr }
	eng := startedEngine(t, ec)
	settled0 := Metrics.Settled.Value()
	timed0 := protocol.Metrics.NegotiateSeconds.Count()

	peer, served := serveLegacy(t, eng)
	edge := &protocol.Party{
		Role: poc.RoleEdge, Plan: testPlan, Keys: edgeKeys, PeerKey: &opKeys.Private.PublicKey,
		Strategy: core.OptimalStrategy{}, View: testView, RNG: sim.NewRNG(5),
	}
	res, err := edge.Run(peer, false)
	if err != nil {
		t.Fatalf("legacy edge: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	requireClosed(t, peer)

	pr := <-recs
	edgeDER, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	fp := sha256.Sum256(edgeDER)
	if want := hex.EncodeToString(fp[:]); pr.PeerFP != want || pr.SID != 0 {
		t.Fatalf("record sid %d fingerprint %q, want sid 0 fingerprint %q", pr.SID, pr.PeerFP, want)
	}
	var proof poc.PoC
	if err := proof.UnmarshalBinary(pr.Proof); err != nil {
		t.Fatalf("recorded proof does not decode: %v", err)
	}
	if err := poc.VerifyStateless(&proof, testPlan,
		&edgeKeys.Private.PublicKey, &opKeys.Private.PublicKey); err != nil {
		t.Fatalf("recorded proof does not verify: %v", err)
	}
	if proof.X != res.X || pr.X != res.X {
		t.Fatalf("proof X=%d record X=%d, edge settled %d", proof.X, pr.X, res.X)
	}
	if got := Metrics.Settled.Value() - settled0; got != 1 {
		t.Fatalf("sessions_settled_total moved by %d, want 1", got)
	}
	if got := protocol.Metrics.NegotiateSeconds.Count() - timed0; got != 1 {
		t.Fatalf("protocol_negotiate_seconds_count moved by %d, want 1", got)
	}
}

// TestEngineFailsLegacyPeers: each failing legacy peer moves the same
// protocol_* counters as the matching row of protocol's
// TestRunOutcomeAccounting, and the engine hangs up on it.
func TestEngineFailsLegacyPeers(t *testing.T) {
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
	byzantine := func(mode string) func(net.Conn) error {
		return func(c net.Conn) error {
			b := &protocol.Byzantine{
				Mode: mode, Role: poc.RoleEdge, Plan: testPlan, Keys: edgeKeys,
				RNG: sim.NewRNG(34), Stale: earlier.PoC,
			}
			_, err := b.Run(c)
			return err
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
		name   string
		peer   func(net.Conn) error
		served error // what ServeConn returns
		deltas map[string]float64
	}{
		{"replay", byzantine(protocol.ByzReplay), nil,
			map[string]float64{started: 1, failed: 1, staleRej: 1}},
		{"tamper", byzantine(protocol.ByzTamper), nil,
			map[string]float64{started: 1, failed: 1, byzRej: 1}},
		{"inflate", byzantine(protocol.ByzInflate), nil,
			map[string]float64{started: 1, failed: 1, byzRej: 1}},
		{"truncated", func(c net.Conn) error {
			if _, err := protocol.ReadFrame(c); err != nil {
				return err
			}
			// Announce 100 body bytes, then die after 3.
			if _, err := c.Write([]byte{0, 0, 0, 100, 9, 9, 9}); err != nil {
				return err
			}
			return c.Close()
		}, protocol.ErrFrameTruncated,
			map[string]float64{started: 1, failed: 1, truncated: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := protocolCounters()
			peer, served := serveLegacy(t, eng)
			if err := tc.peer(peer); err != nil {
				t.Fatalf("peer: %v", err)
			}
			if err := <-served; !errors.Is(err, tc.served) || (tc.served == nil && err != nil) {
				t.Fatalf("ServeConn = %v, want %v", err, tc.served)
			}
			if tc.served == nil {
				// The peer that died closed its own end; the others
				// must hear the verdict from the engine's close.
				requireClosed(t, peer)
			}
			checkCounterDeltas(t, before, tc.deltas)
		})
	}
	if got := Metrics.Active.Value(); got != 0 {
		t.Fatalf("sessions_active = %d after the failed peers, want 0", got)
	}
}

// TestEngineRejectsLegacyConnAtCap: with the session cap full, the
// engine refuses a legacy conn's session by closing the conn, and
// counts the refusal.
func TestEngineRejectsLegacyConnAtCap(t *testing.T) {
	ec := operatorEngineConfig()
	ec.Shards = 1
	ec.MaxSessions = 1
	eng := startedEngine(t, ec)
	rejected0 := Metrics.Rejected.Value()

	// The first conn's session stays resident: its peer reads the
	// opening claim and never answers it.
	first, _ := serveLegacy(t, eng)
	if _, err := protocol.ReadFrame(first); err != nil {
		t.Fatalf("opening claim: %v", err)
	}
	peer, served := serveLegacy(t, eng)
	if err := <-served; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	requireClosed(t, peer)
	if got := Metrics.Rejected.Value() - rejected0; got != 1 {
		t.Fatalf("sessions_rejected_total moved by %d, want 1", got)
	}
}

// TestEngineLegacyConnOpensOneSession: once a legacy conn's session
// is gone, a late frame from its peer is dropped, not admitted as a
// second session.
func TestEngineLegacyConnOpensOneSession(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := staleConn(5)
	c.legacy = true
	eng.dispatch(c, 0, []byte{0x01})
	if s := residentSession(eng, connSid{conn: 5}); s != nil || eng.active.Load() != 0 {
		t.Fatalf("a late legacy frame opened a session: %+v", s)
	}
}
