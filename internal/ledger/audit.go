package ledger

import "fmt"

// AuditReport answers the operator's audit question: everything the
// ledger holds about one subscriber in one cycle — the individual CDRs
// and PoCs, and the CDRs' aggregate usage.
type AuditReport struct {
	Subscriber string
	Cycle      uint64
	// CDRs and PoCs are the individual matching records, append
	// order.
	CDRs []Record
	PoCs []Record
	// Aggregate usage over CDRs.
	UL, DL  uint64
	Records uint32
}

// Volume is the aggregate charged bytes.
func (r *AuditReport) Volume() uint64 { return r.UL + r.DL }

// Audit replays the ledger in dir (read-only; works on live and
// closed ledgers alike) and reports on (subscriber, cycle). A damaged
// log is an ErrCorrupt error, not a report on its verified prefix.
func Audit(fsys FS, dir, subscriber string, cycle uint64) (*AuditReport, error) {
	rep := &AuditReport{Subscriber: subscriber, Cycle: cycle}
	err := Replay(fsys, dir, func(rec *Record) error {
		if rec.Subscriber != subscriber || rec.Cycle != cycle {
			return nil
		}
		switch rec.Kind {
		case KindCDR:
			rep.CDRs = append(rep.CDRs, cloneRecord(rec))
			rep.UL += rec.UL
			rep.DL += rec.DL
			rep.Records++
		case KindPoC:
			rep.PoCs = append(rep.PoCs, cloneRecord(rec))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ledger: audit: %w", err)
	}
	return rep, nil
}
