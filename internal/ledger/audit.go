package ledger

import "fmt"

// AuditReport answers the operator's audit question: everything the
// ledger knows about one subscriber in one cycle — the individual
// records still stored, the aggregate (including usage folded into
// snapshots by compaction), and whether the cycle settled.
type AuditReport struct {
	Subscriber string
	Cycle      uint64
	// CDRs and PoCs are the individual matching records, append
	// order. CDRs of a compacted settled cycle are gone as
	// individuals but still counted in the aggregate below.
	CDRs []Record
	PoCs []Record
	// Chains are the matching roaming settlement chains: billed
	// volume plus relay provenance plus the re-verifiable chain bytes.
	Chains []Record
	// Aggregate usage: live records plus snapshot entries.
	UL, DL  uint64
	Records uint32
	Settled bool
}

// Volume is the aggregate charged bytes.
func (r *AuditReport) Volume() uint64 { return r.UL + r.DL }

// Audit replays the ledger in dir (read-only; works on live and
// closed ledgers alike) and reports on (subscriber, cycle). A damaged
// log is an ErrCorrupt error, not a report on its verified prefix.
func Audit(fsys FS, dir, subscriber string, cycle uint64) (*AuditReport, error) {
	rep := &AuditReport{Subscriber: subscriber, Cycle: cycle}
	err := Replay(fsys, dir, func(rec *Record) error {
		switch rec.Kind {
		case KindCDR:
			if rec.Subscriber == subscriber && rec.Cycle == cycle {
				rep.CDRs = append(rep.CDRs, cloneRecord(rec))
				rep.UL += rec.UL
				rep.DL += rec.DL
				rep.Records++
			}
		case KindPoC:
			if rec.Subscriber == subscriber && rec.Cycle == cycle {
				rep.PoCs = append(rep.PoCs, cloneRecord(rec))
			}
		case KindChainPoC:
			if rec.Subscriber == subscriber && rec.Cycle == cycle {
				rep.Chains = append(rep.Chains, cloneRecord(rec))
			}
		case KindMark:
			if rec.Cycle == cycle {
				rep.Settled = true
			}
		case KindSnapshot:
			if rec.Snap == nil {
				return nil
			}
			for _, c := range rec.Snap.Settled {
				if c == cycle {
					rep.Settled = true
				}
			}
			for i := range rec.Snap.Entries {
				e := &rec.Snap.Entries[i]
				if e.Subscriber == subscriber && e.Cycle == cycle {
					rep.UL += e.UL
					rep.DL += e.DL
					rep.Records += e.Records
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: audit: %w", err)
	}
	return rep, nil
}
