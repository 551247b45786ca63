package tlc

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"tlc/internal/ledger"
	"tlc/internal/poc"
)

// TestSettleMultiOperator settles a multi-access edge device's two
// operators (§8) with one independent negotiation each: its own plan,
// keys and usage classification.
func TestSettleMultiOperator(t *testing.T) {
	edgeKeys, _ := testKeys(t)
	opA, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	opB, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2019, 1, 7, 7, 0, 0, 0, time.UTC)
	accounts := []struct {
		plan  Plan
		keys  *KeyPair
		usage Usage
	}{
		{Plan{Start: start, End: start.Add(time.Hour), C: 0.25}, opA, Usage{Sent: 1_000_000, Received: 900_000}},
		{Plan{Start: start, End: start.Add(time.Hour), C: 0.5}, opB, Usage{Sent: 500_000, Received: 480_000}},
	}
	receipts := make([]*Receipt, len(accounts))
	for i, a := range accounts {
		r, _, err := NegotiateLocal(a.plan, edgeKeys, a.keys, a.usage, a.usage, Optimal, Optimal, 99+int64(i))
		if err != nil {
			t.Fatalf("operator %d: %v", i, err)
		}
		receipts[i] = r
	}
	// Per-operator plans apply independently: c=0.25 for A.
	if want := ExpectedCharge(accounts[0].plan, accounts[0].usage); receipts[0].X != want {
		t.Fatalf("operator-A settled %d, want %d", receipts[0].X, want)
	}
	// Each proof verifies under its own operator's key only.
	if err := Verify(receipts[0].Proof, accounts[0].plan, edgeKeys.Public(), opA.Public()); err != nil {
		t.Fatalf("A proof: %v", err)
	}
	if Verify(receipts[0].Proof, accounts[0].plan, edgeKeys.Public(), opB.Public()) == nil {
		t.Fatal("A proof verified with B's key")
	}
}

// openTestArchive opens an archive in dir that the test closes on
// cleanup.
func openTestArchive(t *testing.T, dir string) *Archive {
	t.Helper()
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Error(err)
		}
	})
	return a
}

// saveCycles settles n consecutive hourly cycles and archives each
// receipt, returning the receipts and their IDs in save order.
func saveCycles(t *testing.T, a *Archive, n int, seed int64) ([]*Receipt, []string) {
	t.Helper()
	edgeKeys, opKeys := testKeys(t)
	usage := Usage{Sent: 800_000, Received: 760_000}
	var rs []*Receipt
	var ids []string
	for i := 0; i < n; i++ {
		p := testPlan()
		p.Start = p.Start.Add(time.Duration(i) * time.Hour)
		p.End = p.Start.Add(time.Hour)
		r, _, err := NegotiateLocal(p, edgeKeys, opKeys, usage, usage, Optimal, Optimal, seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		id, err := a.Save(r)
		if err != nil {
			t.Fatal(err)
		}
		rs, ids = append(rs, r), append(ids, id)
	}
	return rs, ids
}

// listIDs returns the archive's IDs in List order.
func listIDs(t *testing.T, a *Archive) []string {
	t.Helper()
	list, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(list))
	for i, e := range list {
		ids[i] = e.ID
	}
	return ids
}

func TestArchiveSaveListAudit(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	a := openTestArchive(t, t.TempDir())
	rs, ids := saveCycles(t, a, 3, 500)
	list, err := a.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("archive has %d entries", len(list))
	}
	if !list[0].Start.Before(list[1].Start) {
		t.Fatal("archive not ordered by cycle start")
	}
	for i, e := range list {
		if e.ID != ids[i] || e.X != rs[i].X || e.C != testPlan().C {
			t.Fatalf("entry %d = %+v, want ID %s X %d", i, e, ids[i], rs[i].X)
		}
	}
	rep, err := a.Audit(edgeKeys.Public(), opKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 3 || rep.Invalid != 0 {
		t.Fatalf("audit = %+v", rep)
	}
	want := 3 * ExpectedCharge(testPlan(), Usage{Sent: 800_000, Received: 760_000})
	if rep.TotalSettled != want {
		t.Fatalf("TotalSettled = %d, want %d", rep.TotalSettled, want)
	}
}

// TestArchiveDeduplicates: a receipt's ID is its content address, the
// hex of the first 8 bytes of the proof's SHA-256, and a receipt saved
// twice keeps that ID and is stored once.
func TestArchiveDeduplicates(t *testing.T) {
	a := openTestArchive(t, t.TempDir())
	rs, ids := saveCycles(t, a, 1, 2)
	sum := sha256.Sum256(rs[0].Proof)
	if want := hex.EncodeToString(sum[:8]); ids[0] != want {
		t.Fatalf("ID %s, want the content address %s", ids[0], want)
	}
	again, err := a.Save(rs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again != ids[0] {
		t.Fatalf("same proof got IDs %s and %s", ids[0], again)
	}
	if got := listIDs(t, a); len(got) != 1 {
		t.Fatalf("duplicate archived: %d entries", len(got))
	}
}

// TestArchiveRejectsGarbage: a proof that does not decode never enters
// the archive.
func TestArchiveRejectsGarbage(t *testing.T) {
	a := openTestArchive(t, t.TempDir())
	if _, err := a.Save(&Receipt{X: 1, Proof: []byte("garbage")}); err == nil {
		t.Fatal("garbage archived")
	}
	if got := listIDs(t, a); len(got) != 0 {
		t.Fatalf("archive holds %d entries after refusing garbage", len(got))
	}
}

// TestArchiveDamage: one flipped byte in a saved archive is reported,
// never repaired: the open archive's List and Audit and a fresh
// OpenArchive all return ledger.ErrCorrupt, and every file under the
// directory is byte-identical afterwards.
func TestArchiveDamage(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	dir := t.TempDir()
	a := openTestArchive(t, dir)
	saveCycles(t, a, 3, 3)
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v; want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0x40 // inside the last proof
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, dir)

	if _, err := a.List(); !errors.Is(err, ledger.ErrCorrupt) {
		t.Fatalf("List err = %v, want ErrCorrupt", err)
	}
	if _, err := a.Audit(edgeKeys.Public(), opKeys.Public()); !errors.Is(err, ledger.ErrCorrupt) {
		t.Fatalf("Audit err = %v, want ErrCorrupt", err)
	}
	if _, err := OpenArchive(dir); !errors.Is(err, ledger.ErrCorrupt) {
		t.Fatalf("OpenArchive err = %v, want ErrCorrupt", err)
	}
	if after := readTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("reading a damaged archive rewrote its files")
	}
}

// readTree returns every file under dir by name.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestArchiveReopen: a closed archive reopens with the same receipts
// and still recognises them, so a re-save stores nothing.
func TestArchiveReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenArchive(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs, ids := saveCycles(t, a, 2, 4)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b := openTestArchive(t, dir)
	if got := listIDs(t, b); !reflect.DeepEqual(got, ids) {
		t.Fatalf("reopened archive lists %v, want %v", got, ids)
	}
	if id, err := b.Save(rs[1]); err != nil || id != ids[1] {
		t.Fatalf("re-save = %s, %v; want %s", id, err, ids[1])
	}
	if got := listIDs(t, b); len(got) != 2 {
		t.Fatalf("re-save after reopen stored a duplicate: %d entries", len(got))
	}
}

// TestArchiveConcurrentSave: goroutines saving the same receipts
// store each proof once.
func TestArchiveConcurrentSave(t *testing.T) {
	rs, ids := saveCycles(t, openTestArchive(t, t.TempDir()), 3, 6)
	a := openTestArchive(t, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range rs {
				if _, err := a.Save(r); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if got := listIDs(t, a); !reflect.DeepEqual(got, ids) {
		t.Fatalf("archive lists %v, want each of %v once", got, ids)
	}
}

// TestArchiveAuditWrongKeys: an audit under keys that did not sign a
// receipt flags it with its Algorithm 2 failure instead of passing.
func TestArchiveAuditWrongKeys(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	plan := testPlan()
	usage := Usage{Sent: 100, Received: 90}
	a := openTestArchive(t, t.TempDir())
	opR, _, err := NegotiateLocal(plan, edgeKeys, opKeys, usage, usage, Honest, Honest, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Save(opR); err != nil {
		t.Fatal(err)
	}
	foreign, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		edge, op   *rsa.PublicKey
		acceptable []error
	}{
		{"swapped", opKeys.Public(), edgeKeys.Public(), []error{poc.ErrBadSignature, poc.ErrRoleChain}},
		{"foreign_operator", edgeKeys.Public(), foreign.Public(), []error{poc.ErrBadSignature}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := a.Audit(tc.edge, tc.op)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Valid != 0 || rep.Invalid != 1 || len(rep.Failures) != 1 || rep.TotalSettled != 0 {
				t.Fatalf("audit = %+v", rep)
			}
			for id, err := range rep.Failures {
				ok := false
				for _, want := range tc.acceptable {
					ok = ok || errors.Is(err, want)
				}
				if !ok {
					t.Fatalf("receipt %s: unexpected audit error %v", id, err)
				}
			}
		})
	}
}

// TestArchiveAuditAcceptsValidArchive: every receipt of an archive of
// cycles with different usage passes the audit, and the settled total
// is the sum of the receipts' charges.
func TestArchiveAuditAcceptsValidArchive(t *testing.T) {
	edgeKeys, opKeys := testKeys(t)
	a := openTestArchive(t, t.TempDir())
	var want uint64
	for i := 0; i < 5; i++ {
		p := testPlan()
		p.Start = p.Start.Add(time.Duration(i) * time.Hour)
		p.End = p.Start.Add(time.Hour)
		usage := Usage{Sent: 1000 + uint64(i), Received: 900}
		r, _, err := NegotiateLocal(p, edgeKeys, opKeys, usage, usage, Optimal, Optimal, 40+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Save(r); err != nil {
			t.Fatal(err)
		}
		want += r.X
	}
	rep, err := a.Audit(edgeKeys.Public(), opKeys.Public())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid != 5 || rep.Invalid != 0 || len(rep.Failures) != 0 {
		t.Fatalf("audit = %+v", rep)
	}
	if want == 0 || rep.TotalSettled != want {
		t.Fatalf("TotalSettled = %d, want %d", rep.TotalSettled, want)
	}
}
