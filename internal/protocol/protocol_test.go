package protocol

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

var (
	edgeKeys *poc.KeyPair
	opKeys   *poc.KeyPair
	plan     = poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5}
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

func parties(edgeStrat, opStrat core.Strategy, ev, ov core.View, seed int64) (*Party, *Party) {
	edge := &Party{
		Role: poc.RoleEdge, Plan: plan, Keys: edgeKeys, PeerKey: opKeys.Public,
		Strategy: edgeStrat, View: ev, RNG: sim.NewRNG(seed),
	}
	op := &Party{
		Role: poc.RoleOperator, Plan: plan, Keys: opKeys, PeerKey: edgeKeys.Public,
		Strategy: opStrat, View: ov, RNG: sim.NewRNG(seed + 1),
	}
	return edge, op
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("hello negotiation")
	if err := WriteFrame(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("frame = %q", got)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	// A forged oversized header is rejected on read.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized header accepted")
	}
	// Truncated frame.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 1, 2})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestOperatorInitiatedOptimalOneRound(t *testing.T) {
	// Theorem 4 over the wire: rational parties settle in one CDR
	// exchange and both hold the same verifiable PoC.
	view := core.View{Sent: 1000, Received: 900}
	edge, op := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 1)
	ro, re, err := RunPair(op, edge)
	if err != nil {
		t.Fatal(err)
	}
	if ro.X != re.X || ro.X != 950 {
		t.Fatalf("X = %d / %d, want 950", ro.X, re.X)
	}
	if ro.Rounds != 1 {
		t.Fatalf("operator rounds = %d, want 1", ro.Rounds)
	}
	// Both PoCs are the same bytes.
	b1, _ := ro.PoC.MarshalBinary()
	b2, _ := re.PoC.MarshalBinary()
	if !bytes.Equal(b1, b2) {
		t.Fatal("parties hold different proofs")
	}
	// And the proof verifies publicly.
	if err := poc.VerifyStateless(ro.PoC, plan, edgeKeys.Public, opKeys.Public); err != nil {
		t.Fatalf("public verification: %v", err)
	}
}

func TestEdgeInitiatedHonestOneRound(t *testing.T) {
	view := core.View{Sent: 2000, Received: 1500}
	edge, op := parties(core.HonestStrategy{}, core.HonestStrategy{}, view, view, 2)
	re, ro, err := RunPair(edge, op)
	if err != nil {
		t.Fatal(err)
	}
	// Honest parties: x = xo + c(xe - xo) = 1500 + 0.5*500 = 1750.
	if re.X != 1750 || ro.X != 1750 {
		t.Fatalf("X = %d / %d, want 1750", re.X, ro.X)
	}
	if err := poc.VerifyStateless(re.PoC, plan, edgeKeys.Public, opKeys.Public); err != nil {
		t.Fatalf("public verification: %v", err)
	}
}

func TestRandomSelfishConvergesOverWire(t *testing.T) {
	view := core.View{Sent: 10000, Received: 9300}
	totalRounds := 0
	const n = 50
	for i := 0; i < n; i++ {
		edge, op := parties(core.RandomSelfishStrategy{}, core.RandomSelfishStrategy{}, view, view, int64(100+i))
		edge.MaxRounds, op.MaxRounds = 256, 256
		ro, re, err := RunPair(op, edge)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if re.X != ro.X {
			t.Fatalf("iteration %d: X mismatch %d vs %d", i, re.X, ro.X)
		}
		// Theorem 2 bound (with tolerance).
		if float64(ro.X) < 9300*0.89 || float64(ro.X) > 10000*1.11 {
			t.Fatalf("iteration %d: X=%d escapes bound", i, ro.X)
		}
		totalRounds += ro.Rounds
	}
	avg := float64(totalRounds) / n
	if avg < 1 || avg > 10 {
		t.Fatalf("average rounds = %.1f", avg)
	}
}

func TestAlwaysRejectExhaustsRounds(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	edge, op := parties(core.OptimalStrategy{}, core.AlwaysRejectStrategy{}, view, view, 3)
	edge.MaxRounds, op.MaxRounds = 8, 8
	_, _, err := RunPair(op, edge)
	if err == nil {
		t.Fatal("negotiation with an always-rejecting peer settled")
	}
}

// TestRunPairReportsFailingSide: when the responder is the side that
// fails, RunPair returns the responder's typed error, not the
// initiator's view of a transport that went away, and classifies the
// failure once.
func TestRunPairReportsFailingSide(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	edge, op := parties(core.OptimalStrategy{}, core.AlwaysRejectStrategy{}, view, view, 7)
	op.MaxRounds, edge.MaxRounds = 256, 2
	if _, _, err := RunPair(op, edge); !errors.Is(err, ErrNoConvergence) || !strings.HasPrefix(err.Error(), "responder: ") {
		t.Fatalf("err = %v, want the responder's ErrNoConvergence", err)
	}

	// A plan mismatch fails the responder's first validation: one
	// byzantine rejection, two failed negotiations.
	edge, op = parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 8)
	op.Plan.C = 0.6
	before := protocolCounters()
	if _, _, err := RunPair(op, edge); !errors.Is(err, ErrBadPeer) || !strings.HasPrefix(err.Error(), "responder: ") {
		t.Fatalf("err = %v, want the responder's ErrBadPeer", err)
	}
	checkCounterDeltas(t, before, map[string]float64{
		"protocol_negotiations_started_total": 2,
		"protocol_negotiations_failed_total":  2,
		"protocol_byzantine_rejections_total": 1,
	})
}

func TestRunOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test

	view := core.View{Sent: 5000, Received: 4600}
	edge, op := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 4)
	edge.Timeout, op.Timeout = 5*time.Second, 5*time.Second

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- outcome{nil, err}
			return
		}
		defer conn.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
		res, err := edge.Run(conn, false)
		ch <- outcome{res, err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	ro, err := op.Run(conn, true)
	if err != nil {
		t.Fatal(err)
	}
	re := <-ch
	if re.err != nil {
		t.Fatal(re.err)
	}
	if ro.X != re.res.X || ro.X != 4800 {
		t.Fatalf("TCP negotiation X = %d / %d, want 4800", ro.X, re.res.X)
	}
}

func TestMissingConfig(t *testing.T) {
	p := &Party{Role: poc.RoleEdge}
	if _, err := p.Run(nil, true); err == nil {
		t.Fatal("missing config accepted")
	}
}

// tamperConn flips a byte in the first CDR frame that passes through.
type tamperConn struct {
	net.Conn
	tampered bool
}

func (c *tamperConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err == nil && !c.tampered && n > 20 {
		b[12] ^= 0xFF // corrupt a plan byte inside the payload
		c.tampered = true
	}
	return n, err
}

func TestTamperedMessageRejected(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	edge, op := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 5)
	ci, cr := net.Pipe()
	defer ci.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	defer cr.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	go func() {
		_, _ = op.Run(ci, true)
		_ = ci.Close()
	}()
	_, err := edge.Run(&tamperConn{Conn: cr}, false)
	if err == nil {
		t.Fatal("tampered stream accepted")
	}
	if !errors.Is(err, ErrBadPeer) && !errors.Is(err, ErrBadMessage) &&
		!strings.Contains(err.Error(), "closed") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSequenceNumbersMatchAtSettle(t *testing.T) {
	// Multi-round negotiations must still settle with se == so, or
	// Algorithm 2 would reject the proof.
	view := core.View{Sent: 1000, Received: 700}
	for i := 0; i < 20; i++ {
		edge, op := parties(core.RandomSelfishStrategy{}, core.RandomSelfishStrategy{}, view, view, int64(500+i))
		edge.MaxRounds, op.MaxRounds = 256, 256
		ro, _, err := RunPair(op, edge)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if ro.PoC.CDA.Seq != ro.PoC.CDA.Peer.Seq {
			t.Fatalf("iteration %d: se=%d so=%d", i, ro.PoC.CDA.Seq, ro.PoC.CDA.Peer.Seq)
		}
		if err := poc.VerifyStateless(ro.PoC, plan, edgeKeys.Public, opKeys.Public); err != nil {
			t.Fatalf("iteration %d: settle proof invalid: %v", i, err)
		}
	}
}
