package tlc

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tlc/internal/metrics"
	"tlc/internal/protocol"
	"tlc/internal/session"
)

var (
	tEdgeKeys *KeyPair
	tOpKeys   *KeyPair
)

func testKeys(t *testing.T) (*KeyPair, *KeyPair) {
	t.Helper()
	if tEdgeKeys == nil {
		var err error
		if tEdgeKeys, err = GenerateKeyPair(); err != nil {
			t.Fatal(err)
		}
		if tOpKeys, err = GenerateKeyPair(); err != nil {
			t.Fatal(err)
		}
	}
	return tEdgeKeys, tOpKeys
}

func testPlan() Plan {
	start := time.Date(2019, 1, 7, 7, 13, 46, 0, time.UTC)
	return Plan{Start: start, End: start.Add(time.Hour), C: 0.5}
}

func TestPlanValidate(t *testing.T) {
	if err := testPlan().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testPlan()
	bad.End = bad.Start
	if bad.Validate() == nil {
		t.Fatal("empty cycle accepted")
	}
	bad = testPlan()
	bad.C = 2
	if bad.Validate() == nil {
		t.Fatal("c=2 accepted")
	}
}

func TestExpectedCharge(t *testing.T) {
	got := ExpectedCharge(testPlan(), Usage{Sent: 1000, Received: 900})
	if got != 950 {
		t.Fatalf("ExpectedCharge = %d, want 950", got)
	}
}

func TestNegotiateLocalAndVerify(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 1_000_000, Received: 930_000}
	opR, edgeR, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Optimal, Optimal, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectedCharge(plan, usage)
	if opR.X != want || edgeR.X != want {
		t.Fatalf("X = %d/%d, want %d", opR.X, edgeR.X, want)
	}
	if opR.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", opR.Rounds)
	}
	if err := Verify(opR.Proof, plan, edgeKeys.Public(), opKeys.Public()); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	vol, err := ProofVolume(opR.Proof)
	if err != nil || vol != want {
		t.Fatalf("ProofVolume = %d, %v", vol, err)
	}
}

// negotiatePair runs initiator against responder over an in-memory
// net.Conn and returns each side's outcome.
func negotiatePair(initiator, responder *Negotiator) (ri, rr *Receipt, erri, errr error) {
	ci, cr := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rr, errr = responder.Negotiate(cr, false)
	}()
	ri, erri = initiator.Negotiate(ci, true)
	<-done
	return ri, rr, erri, errr
}

// TestNegotiatorNonceSource: a live negotiator draws its nonces from
// crypto/rand, so two live negotiations of one cycle sign different
// proofs, while NegotiateLocal stays byte-identical for a seed.
func TestNegotiatorNonceSource(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 1_000_000, Received: 930_000}
	var proofs [2][]byte
	for i := range proofs {
		op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), usage, Optimal)
		edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)
		r, _, err, rerr := negotiatePair(op, edge)
		if err != nil || rerr != nil {
			t.Fatalf("live negotiation %d: %v / %v", i, err, rerr)
		}
		proofs[i] = r.Proof
	}
	if bytes.Equal(proofs[0], proofs[1]) {
		t.Fatal("two live negotiations of one cycle signed the same proof")
	}
	a, _, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Optimal, Optimal, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Optimal, Optimal, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Proof, b.Proof) {
		t.Fatal("NegotiateLocal with one seed returned different proofs")
	}
}

// TestNegotiateRefusesImpostors: each side pinned the other's key, so
// a peer holding another key leaves the honest side with ErrBadPeer
// and no receipt, and the honest side signs nothing for it: an
// impostor initiator is refused at its hello, an impostor responder at
// its key frame, each before a session opens. So the impostor ends
// without a receipt too, and only the refusal counts as a byzantine
// rejection.
func TestNegotiateRefusesImpostors(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	impostor, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlan()
	usage := Usage{Sent: 1_000_000, Received: 930_000}

	// The impostor initiator counts one failure too: the responder
	// hangs up on it.
	before := protocolCounters()
	fake := NewNegotiator(Operator, plan, impostor, edgeKeys.Public(), usage, Optimal)
	edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)
	fr, r, ferr, err := negotiatePair(fake, edge)
	if r != nil || !errors.Is(err, protocol.ErrBadPeer) {
		t.Fatalf("responder facing an impostor: holds a receipt %v, err %v; want no receipt and ErrBadPeer", r != nil, err)
	}
	if fr != nil || ferr == nil {
		t.Fatalf("impostor initiator: holds a receipt %v, err %v; want no receipt and an error", fr != nil, ferr)
	}
	checkCounterDeltas(t, before, map[string]float64{
		"protocol_negotiations_started_total": 2, "protocol_negotiations_failed_total": 2,
		"protocol_byzantine_rejections_total": 1,
	})

	// The impostor responder admits no session, so its engine counts
	// nothing.
	before = protocolCounters()
	op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), usage, Optimal)
	fake = NewNegotiator(Edge, plan, impostor, opKeys.Public(), usage, Optimal)
	r, fr, err, ferr = negotiatePair(op, fake)
	if r != nil || !errors.Is(err, protocol.ErrBadPeer) {
		t.Fatalf("initiator facing an impostor: holds a receipt %v, err %v; want no receipt and ErrBadPeer", r != nil, err)
	}
	if fr != nil || ferr == nil {
		t.Fatalf("impostor responder: holds a receipt %v, err %v; want no receipt and an error", fr != nil, ferr)
	}
	checkCounterDeltas(t, before, map[string]float64{
		"protocol_negotiations_started_total": 1, "protocol_negotiations_failed_total": 1,
		"protocol_byzantine_rejections_total": 1,
	})
}

// TestNegotiateRequiresPeerKey: a negotiator built without the peer's
// key returns an error on either side before it reads or writes conn,
// and still closes it.
func TestNegotiateRequiresPeerKey(t *testing.T) {
	edgeKeys, _ := testKeys(t)
	for _, initiate := range []bool{true, false} {
		n := NewNegotiator(Edge, testPlan(), edgeKeys, nil, Usage{Sent: 1, Received: 1}, Optimal)
		conn := &noIOConn{t: t}
		if r, err := n.Negotiate(conn, initiate); r != nil || err == nil {
			t.Errorf("initiate=%v: holds a receipt %v, err %v; want no receipt and an error", initiate, r != nil, err)
		}
		if !conn.closed {
			t.Errorf("initiate=%v: conn left open", initiate)
		}
	}
}

// noIOConn fails the test on any read or write and records its close.
type noIOConn struct {
	t      *testing.T
	closed bool
}

func (c *noIOConn) Read([]byte) (int, error) {
	c.t.Error("Negotiate read conn")
	return 0, io.EOF
}

func (c *noIOConn) Write([]byte) (int, error) {
	c.t.Error("Negotiate wrote conn")
	return 0, io.ErrClosedPipe
}

func (c *noIOConn) Close() error {
	c.closed = true
	return nil
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
	for name, v := range protocolCounters() {
		if got := v - before[name]; got != want[name] {
			t.Errorf("%s moved by %v, want %v", name, got, want[name])
		}
	}
}

// TestNegotiateSettlesOneSession: a library responder settles one
// cycle per call. A client that opens two sessions on it settles one,
// the second is refused, and the responder returns the one receipt.
func TestNegotiateSettlesOneSession(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 1_000_000, Received: 930_000}
	op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), usage, Optimal)
	edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)

	ci, cr := net.Pipe()
	type outcome struct {
		r   *Receipt
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := edge.Negotiate(cr, false)
		done <- outcome{r, err}
	}()
	res, err := session.RunClient(session.ClientConfig{
		Config: op.party.Config(), Sessions: 2, Conns: []io.ReadWriter{ci}, Seed: 1,
	})
	_ = ci.Close() // the client is done; the responder returns on the hang-up
	if err != nil {
		t.Fatal(err)
	}
	if res.Settled != 1 || res.Rejected != 1 || !errors.Is(res.Cause, session.ErrOverload) {
		t.Fatalf("client: settled %d rejected %d cause %v; want 1, 1 and ErrOverload", res.Settled, res.Rejected, res.Cause)
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("responder: %v", got.err)
	}
	if !bytes.Equal(got.r.Proof, res.Receipts[0].Proof) {
		t.Fatal("the responder's receipt is not the settled session's proof")
	}
}

func TestVerifyRejectsWrongPlan(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 500_000, Received: 480_000}
	opR, _, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Honest, Honest, 9)
	if err != nil {
		t.Fatal(err)
	}
	other := plan
	other.C = 0.25
	if Verify(opR.Proof, other, edgeKeys.Public(), opKeys.Public()) == nil {
		t.Fatal("wrong plan verified")
	}
}

func TestVerifierRejectsReplays(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 100_000, Received: 99_000}
	opR, _, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Optimal, Optimal, 11)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(edgeKeys.Public(), opKeys.Public())
	if err := v.Verify(opR.Proof, plan); err != nil {
		t.Fatal(err)
	}
	if v.Verify(opR.Proof, plan) == nil {
		t.Fatal("replayed proof verified")
	}
}

func TestNegotiateOverTCP(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 2_000_000, Received: 1_900_000}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	type res struct {
		r   *Receipt
		err error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)
		r, err := edge.Negotiate(conn, false)
		ch <- res{r, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	before := protocolCounters()
	op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), usage, Optimal)
	opReceipt, err := op.Negotiate(conn, true)
	if err != nil {
		t.Fatal(err)
	}
	edgeRes := <-ch
	if edgeRes.err != nil {
		t.Fatal(edgeRes.err)
	}
	// Once per side, as RunPair counts: the initiator counts its call
	// and the responder's engine its session.
	checkCounterDeltas(t, before, map[string]float64{
		"protocol_negotiations_started_total": 2, "protocol_negotiations_settled_total": 2,
		"protocol_rounds_total": float64(opReceipt.Rounds + edgeRes.r.Rounds),
	})
	if opReceipt.X != edgeRes.r.X {
		t.Fatalf("receipts disagree: %d vs %d", opReceipt.X, edgeRes.r.X)
	}
	if err := Verify(opReceipt.Proof, plan, edgeKeys.Public(), opKeys.Public()); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStrings(t *testing.T) {
	if Honest.String() != "honest" || Optimal.String() != "optimal" || RandomSelfish.String() != "random-selfish" {
		t.Fatal("strategy strings wrong")
	}
}

func TestRunScenarioBasics(t *testing.T) {
	rep, err := RunScenario(Scenario{
		App: "VRidge-GVSP", Duration: 15 * time.Second, Seed: 3, BackgroundMbps: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SentBytes == 0 || rep.ReceivedBytes == 0 || rep.CDRs == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.ReceivedBytes >= rep.SentBytes {
		t.Fatal("no loss under congestion?")
	}
	if rep.TLCOptimal.Rounds != 1 {
		t.Fatalf("optimal rounds = %d", rep.TLCOptimal.Rounds)
	}
	if rep.TLCOptimal.GapRatio >= rep.Legacy.GapRatio {
		t.Fatalf("TLC gap %.3f >= legacy %.3f", rep.TLCOptimal.GapRatio, rep.Legacy.GapRatio)
	}
}

func TestRunScenarioUnknownApp(t *testing.T) {
	if _, err := RunScenario(Scenario{App: "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunScenarioDefaultsAndDownlink(t *testing.T) {
	rep, err := RunScenario(Scenario{
		Downlink: true, Duration: 10 * time.Second, Seed: 4,
		OutageMeanGap: 8 * time.Second, OutageMeanDur: 1500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DisconnectRatio <= 0 {
		t.Fatalf("eta = %v with outages configured", rep.DisconnectRatio)
	}
}

func TestAppsList(t *testing.T) {
	names := Apps()
	if len(names) != 4 {
		t.Fatalf("Apps = %v", names)
	}
}
