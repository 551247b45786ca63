package tlc

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tlc/internal/ledger"
	"tlc/internal/poc"
)

// This file implements the §8 extensions: the multi-access edge
// (per-operator TLC instances for devices that combine several 4G/5G
// operators) and the durable receipt archive both parties keep.

// OperatorAccount is one cellular operator a multi-access edge device
// uses, with its agreed plan and the usage the edge metered on that
// operator's network. "The edge should classify its data traffic by
// operators when generating the charging records" (§8).
type OperatorAccount struct {
	Name  string
	Plan  Plan
	Keys  *rsa.PublicKey // operator's public key
	Usage Usage          // edge-side usage view for this operator
}

// MultiOperatorOutcome is one operator's settlement.
type MultiOperatorOutcome struct {
	Operator string
	Receipt  *Receipt
	Err      error
}

// SettleMultiOperator runs one TLC negotiation per operator for a
// multi-access edge device. Each negotiation is independent: its own
// plan, keys and usage classification. opKeys maps operator name to
// that operator's *private* key pair — in production each operator
// runs its own endpoint; this in-process form serves simulations and
// tests. Results are sorted by operator name.
//
//tlcvet:allow unreached — §8 multi-operator reproduction, which only go test . -run MultiOperator runs
func SettleMultiOperator(edgeKeys *KeyPair, accounts []OperatorAccount,
	opKeys map[string]*KeyPair, strategy Strategy, seed int64) []MultiOperatorOutcome {
	out := make([]MultiOperatorOutcome, 0, len(accounts))
	for i, acct := range accounts {
		res := MultiOperatorOutcome{Operator: acct.Name}
		kp, ok := opKeys[acct.Name]
		if !ok {
			res.Err = fmt.Errorf("tlc: no key pair for operator %q", acct.Name)
			out = append(out, res)
			continue
		}
		opReceipt, _, err := NegotiateLocal(acct.Plan, edgeKeys, kp,
			acct.Usage, acct.Usage, strategy, strategy, seed+int64(i))
		if err != nil {
			res.Err = err
			out = append(out, res)
			continue
		}
		res.Receipt = opReceipt
		out = append(out, res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Operator < out[j].Operator })
	return out
}

// Archive is a durable receipt store (one per party, per peer): a
// ledger directory like tlcd's -ledger-dir, holding one fsynced
// KindPoC record per saved proof, so one Audit serves both. A
// receipt's ID is the hex of the first 8 bytes of its proof's SHA-256.
//
// An archive never repairs itself: OpenArchive, List and Audit return
// ledger.ErrCorrupt at the first record they cannot verify and leave
// every file as it is. A crash in the middle of Save thus leaves an
// archive that reports ErrCorrupt rather than one silently cut short;
// only a deliberate ledger.Open truncates it. All methods are safe for
// concurrent use.
type Archive struct {
	dir string
	led *ledger.Ledger

	mu  sync.Mutex
	ids map[string]bool // archived IDs, so Save stores a proof once
}

// OpenArchive creates or opens a receipt archive directory.
func OpenArchive(dir string) (*Archive, error) {
	a := &Archive{dir: dir, ids: map[string]bool{}}
	err := replayProofs(dir, func(id string, _ *poc.PoC, _ error) error {
		a.ids[id] = true
		return nil
	})
	if err != nil && !errors.Is(err, ledger.ErrNoLedger) && !errors.Is(err, ledger.ErrDirNotExist) {
		return nil, err
	}
	// The strict replay found no damage, so Open has nothing to repair.
	if a.led, err = ledger.Open(ledger.Options{Dir: dir, SyncEvery: 1}, nil); err != nil {
		return nil, err
	}
	return a, nil
}

// Save archives a settled receipt's proof. A proof that does not
// decode is refused, and one already archived is not stored again.
// When Save returns an ID, the record is on disk.
func (a *Archive) Save(r *Receipt) (id string, err error) {
	var p poc.PoC
	if err := p.UnmarshalBinary(r.Proof); err != nil {
		return "", fmt.Errorf("tlc: refusing to archive undecodable proof: %w", err)
	}
	id = receiptID(r.Proof)
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ids[id] {
		return id, nil
	}
	// tlcd's schema: the cycle id is the plan start in Unix seconds.
	if err := a.led.Append(&ledger.Record{
		Kind:   ledger.KindPoC,
		Cycle:  uint64(time.Unix(0, p.Plan.TStart).Unix()),
		At:     time.Now().UnixNano(),
		X:      p.X,
		Rounds: uint32(r.Rounds),
		Proof:  r.Proof,
	}); err != nil {
		return "", err
	}
	a.ids[id] = true
	return id, nil
}

// Close syncs and closes the archive. List and Audit still work on a
// closed archive; Save does not.
func (a *Archive) Close() error { return a.led.Close() }

// ArchiveEntry summarises one archived receipt.
type ArchiveEntry struct {
	ID    string
	X     uint64
	Start time.Time
	End   time.Time
	C     float64
}

// List returns the archive contents ordered by cycle start.
func (a *Archive) List() ([]ArchiveEntry, error) {
	var out []ArchiveEntry
	err := replayProofs(a.dir, func(id string, p *poc.PoC, err error) error {
		if err != nil {
			return fmt.Errorf("tlc: archived proof %s: %w", id, err)
		}
		out = append(out, ArchiveEntry{
			ID:    id,
			X:     p.X,
			Start: time.Unix(0, p.Plan.TStart),
			End:   time.Unix(0, p.Plan.TEnd),
			C:     p.Plan.C,
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// AuditReport is the outcome of re-verifying the whole archive.
type AuditReport struct {
	Valid        int
	Invalid      int
	TotalSettled uint64
	Failures     map[string]error
}

// Audit reruns Algorithm 2 across the archive with a shared replay
// set and totals the validly settled volume.
func (a *Archive) Audit(edgeKey, operatorKey *rsa.PublicKey) (*AuditReport, error) {
	verifier := poc.NewVerifier(edgeKey, operatorKey)
	rep := &AuditReport{Failures: map[string]error{}}
	err := replayProofs(a.dir, func(id string, p *poc.PoC, err error) error {
		if err == nil {
			err = verifier.Verify(p, p.Plan)
		}
		if err != nil {
			rep.Invalid++
			rep.Failures[id] = err
		} else {
			rep.Valid++
			rep.TotalSettled += p.X
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// replayProofs streams every KindPoC record of the ledger in dir
// through fn, in append order, with its receipt ID and decoded proof
// (or the decode error).
func replayProofs(dir string, fn func(id string, p *poc.PoC, err error) error) error {
	return ledger.Replay(ledger.DirFS{}, dir, func(rec *ledger.Record) error {
		if rec.Kind != ledger.KindPoC {
			return nil
		}
		var p poc.PoC
		err := p.UnmarshalBinary(rec.Proof)
		return fn(receiptID(rec.Proof), &p, err)
	})
}

// receiptID content-addresses a proof.
func receiptID(proof []byte) string {
	sum := sha256.Sum256(proof)
	return hex.EncodeToString(sum[:8])
}
