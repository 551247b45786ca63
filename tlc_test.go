package tlc

import (
	"bytes"
	"crypto/rand"
	"net"
	"testing"
	"time"
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

// TestNegotiatorNonceSource: a live negotiator draws its nonces from
// crypto/rand, and SetSeed puts them back on the seeded stream, so
// NegotiateLocal stays byte-identical for a seed.
func TestNegotiatorNonceSource(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 1_000_000, Received: 930_000}
	n := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)
	if n.party.NonceSource != rand.Reader {
		t.Fatalf("live nonce source = %T, want crypto/rand", n.party.NonceSource)
	}
	n.SetSeed(3)
	if n.party.NonceSource != nil {
		t.Fatalf("seeded nonce source = %T, want the seeded RNG", n.party.NonceSource)
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
		defer conn.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
		edge := NewNegotiator(Edge, plan, edgeKeys, opKeys.Public(), usage, Optimal)
		edge.SetSeed(1)
		r, err := edge.Negotiate(conn, false)
		ch <- res{r, err}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //tlcvet:allow errdiscard — test cleanup; the assertions, not Close, decide this test
	op := NewNegotiator(Operator, plan, opKeys, edgeKeys.Public(), usage, Optimal)
	op.SetSeed(2)
	op.SetTimeout(5 * time.Second)
	opReceipt, err := op.Negotiate(conn, true)
	if err != nil {
		t.Fatal(err)
	}
	edgeRes := <-ch
	if edgeRes.err != nil {
		t.Fatal(edgeRes.err)
	}
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
