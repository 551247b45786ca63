// Gaming: the online-gaming acceleration scenario of §2.2 — the game
// vendor buys a dedicated high-QoS (QCI=7) bearer for its control
// traffic and settles each charging cycle with the operator over a
// real TCP connection, ending with a mutually signed, publicly
// verifiable Proof-of-Charging.
//
//	go run ./examples/gaming
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"tlc"
)

func main() {
	// 1. Run a gaming charging cycle on the emulated testbed under
	//    heavy background load: the dedicated bearer shields the
	//    control traffic, so the usage pair is nearly loss-free.
	rep, err := tlc.RunScenario(tlc.Scenario{
		App:            "Gaming-QCI7",
		Duration:       60 * time.Second,
		C:              0.5,
		BackgroundMbps: 160,
		Seed:           3001,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cycle usage: sent=%d recv=%d bytes (QCI=7 bearer under 160 Mbps load)\n",
		rep.SentBytes, rep.ReceivedBytes)
	fmt.Printf("legacy gap %.2f%% | TLC-optimal gap %.2f%%\n",
		rep.Legacy.GapRatio*100, rep.TLCOptimal.GapRatio*100)

	// 2. Settle the cycle over TCP as one TLCMUX1 session, the wire
	//    tlcd speaks: the operator listens and opens the session, the
	//    game vendor dials in and serves it. Each side pinned the
	//    other's key beforehand, and Negotiate closes the conn.
	edgeKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		log.Fatal(err)
	}
	opKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now().Truncate(time.Hour)
	plan := tlc.Plan{Start: start, End: start.Add(time.Hour), C: 0.5}
	usage := tlc.Usage{Sent: rep.SentBytes, Received: rep.ReceivedBytes}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close() //tlcvet:allow errdiscard — demo teardown; listener-close failure is inconsequential

	type result struct {
		receipt *tlc.Receipt
		err     error
	}
	opCh := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			opCh <- result{nil, err}
			return
		}
		op := tlc.NewNegotiator(tlc.Operator, plan, opKeys, edgeKeys.Public(), usage, tlc.Optimal)
		r, err := op.Negotiate(conn, true)
		opCh <- result{r, err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	edge := tlc.NewNegotiator(tlc.Edge, plan, edgeKeys, opKeys.Public(), usage, tlc.Optimal)
	edgeReceipt, err := edge.Negotiate(conn, false)
	if err != nil {
		log.Fatal(err)
	}
	opRes := <-opCh
	if opRes.err != nil {
		log.Fatal(opRes.err)
	}
	fmt.Printf("settled over TCP: %d bytes in %d round(s)\n", edgeReceipt.X, edgeReceipt.Rounds)

	// 3. Third-party audit: the MVNO reselling the bearer verifies
	//    the receipt before paying the host operator (§5.3.4).
	verifier := tlc.NewVerifier(edgeKeys.Public(), opKeys.Public())
	if err := verifier.Verify(edgeReceipt.Proof, plan); err != nil {
		log.Fatalf("audit failed: %v", err)
	}
	fmt.Println("MVNO audit: proof VERIFIED")
	// A replay of the same proof is rejected.
	if err := verifier.Verify(edgeReceipt.Proof, plan); err != nil {
		fmt.Printf("replayed proof: rejected (%v)\n", err)
	}
}
