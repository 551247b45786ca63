// Auditor: the public-verifier role of §5.3.4 — an MVNO (or the FCC,
// or a court) that receives Proof-of-Charging receipts from many
// billing cycles, archives them, and audits the archive offline:
// every proof is re-verified with Algorithm 2, replays are rejected,
// and the validly settled volume is totalled for reconciliation.
//
//	go run ./examples/auditor
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"tlc"
)

func main() {
	edgeKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		log.Fatal(err)
	}
	opKeys, err := tlc.GenerateKeyPair()
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "tlc-audit-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir) //tlcvet:allow errdiscard — best-effort temp-dir cleanup on exit
	archive, err := tlc.OpenArchive(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer archive.Close() //tlcvet:allow errdiscard — every Save is already fsynced; Close only releases the handle

	// A month of hourly cycles condensed to six: each settles and its
	// receipt lands in the auditor's archive.
	start := time.Date(2019, 1, 7, 0, 0, 0, 0, time.UTC)
	var expected uint64
	for i := 0; i < 6; i++ {
		plan := tlc.Plan{
			Start: start.Add(time.Duration(i) * time.Hour),
			End:   start.Add(time.Duration(i+1) * time.Hour),
			C:     0.5,
		}
		usage := tlc.Usage{
			Sent:     1_000_000 + uint64(i)*50_000,
			Received: 930_000 + uint64(i)*48_000,
		}
		receipt, _, err := tlc.NegotiateLocal(plan, edgeKeys, opKeys,
			usage, usage, tlc.Optimal, tlc.Optimal, int64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		id, err := archive.Save(receipt)
		if err != nil {
			log.Fatal(err)
		}
		expected += receipt.X
		fmt.Printf("cycle %d: settled %d bytes, archived as %s\n", i, receipt.X, id)
	}

	// The audit: re-run Algorithm 2 over everything.
	report, err := archive.Audit(edgeKeys.Public(), opKeys.Public())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naudit: %d valid, %d invalid, %d bytes settled in total\n",
		report.Valid, report.Invalid, report.TotalSettled)
	if report.TotalSettled != expected {
		log.Fatalf("reconciliation mismatch: %d != %d", report.TotalSettled, expected)
	}

	entries, err := archive.List()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\narchive contents:")
	for _, e := range entries {
		fmt.Printf("  %s  [%s, %s)  c=%.2f  %d bytes\n",
			e.ID, e.Start.UTC().Format("15:04"), e.End.UTC().Format("15:04"), e.C, e.X)
	}
	fmt.Println("\nreconciliation OK — the MVNO pays the host operator the audited total.")
}
