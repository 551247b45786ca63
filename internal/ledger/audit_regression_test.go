package ledger

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"testing"
)

// Regression tests for the audit/compaction edge cases: a subscriber
// whose evidence survives only inside snapshot chunks, the error
// taxonomy for bad -ledger-dir paths, CURRENT read failures that must
// not masquerade as a fresh ledger, snapshot chunks that must respect
// MaxRecordBytes, and a failed compaction that must leave the ledger
// appendable instead of wedged on a nil segment handle.

// TestAuditSnapshotOnlyAnswer: after compaction folds a settled cycle,
// a subscriber with no surviving raw frames (CDRs folded, no PoC ever
// logged) must still get the snapshot-aggregated answer — not zeros,
// and not an error that reads like "not found".
func TestAuditSnapshotOnlyAnswer(t *testing.T) {
	const dir = "led"
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 3, Subscriber: "imsi-snap", UL: 40, DL: 60}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 3, Subscriber: "imsi-snap", UL: 1, DL: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkSettled(3); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(fsys, dir, "imsi-snap", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CDRs) != 0 {
		t.Fatalf("raw CDRs survived compaction: %d", len(rep.CDRs))
	}
	if rep.UL != 41 || rep.DL != 62 || rep.Records != 2 || !rep.Settled {
		t.Fatalf("snapshot-only audit = %+v, want ul=41 dl=62 records=2 settled", rep)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditReportsDamage: one flipped byte inside the 2nd of five
// settled PoCs used to end the replay quietly after the 1st, so the
// audit answered "1 PoC" with a nil error where five had settled.
// Replay and Audit must report the damage as ErrCorrupt, surface only
// the intact prefix, and leave the log byte-identical: repair is
// Open's job alone.
func TestAuditReportsDamage(t *testing.T) {
	const dir = "led"
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, 5)
	for i := range want {
		want[i] = Record{Kind: KindPoC, Cycle: 7, Subscriber: "imsi-dmg",
			X: uint64(1000 + i), Rounds: 1, Proof: []byte(strings.Repeat(string(rune('a'+i)), 200))}
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := join(dir, lastSegment(t, fsys, dir))
	data, err := fsys.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// A proof byte of the 2nd record: past the segment header, the
	// whole 1st frame and the 2nd frame's own header.
	data[segHeader+frameHeader+recordSize(&want[0])+frameHeader+recordSize(&want[1])-1] ^= 0x40
	writeFile(t, fsys, seg, data)

	var got []Record
	if err := Replay(fsys, dir, collect(&got)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 {
		t.Fatalf("Replay surfaced %d records, want the 1 before the damage", len(got))
	}
	requirePrefix(t, "replay", got, want)
	if rep, err := Audit(fsys, dir, "imsi-dmg", 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Audit = %+v, %v; want ErrCorrupt", rep, err)
	}
	after, err := fsys.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(data) {
		t.Fatal("a read-only replay rewrote the damaged segment")
	}
}

// TestAuditDirErrors: a nonexistent ledger directory gets its own
// typed error (an operator typo, not an empty store), distinct from a
// directory that exists but was never written.
func TestAuditDirErrors(t *testing.T) {
	fsys := NewMemFS()
	if _, err := Audit(fsys, "no/such/dir", "imsi-1", 1); !errors.Is(err, ErrDirNotExist) {
		t.Fatalf("missing dir: err = %v, want ErrDirNotExist", err)
	}
	if err := fsys.MkdirAll("empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(fsys, "empty", "imsi-1", 1); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("empty dir: err = %v, want ErrNoLedger", err)
	}
}

// denyFS fails ReadFile on CURRENT with a permission error, leaving
// everything else intact — the shape of a ledger directory an
// operator can list but not read.
type denyFS struct{ *MemFS }

func (d denyFS) ReadFile(name string) ([]byte, error) {
	if strings.HasSuffix(name, currentFile) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	return d.MemFS.ReadFile(name)
}

// TestOpenPropagatesCurrentReadError: an unreadable CURRENT must fail
// Open. The old behavior treated every ReadFile error as "fresh
// ledger" and silently started generation 1 over the existing log —
// the next compaction would then delete the real data as orphans.
func TestOpenPropagatesCurrentReadError(t *testing.T) {
	const dir = "led"
	mem := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: mem, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-1", UL: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, FS: denyFS{mem}, SyncEvery: 1}, nil); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Open over unreadable CURRENT: err = %v, want the permission error", err)
	}
	// Same contract on the read-only audit path.
	if _, err := Audit(denyFS{mem}, dir, "imsi-1", 1); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Audit over unreadable CURRENT: err = %v, want the permission error", err)
	}
}

// TestSnapshotChunksRespectMaxRecordBytes: chunking by entry count
// alone let a snapshot of max-length subscriber ids (or a huge
// settled-cycle set) encode past MaxRecordBytes, which failed the
// very compaction that built it. Every chunk must fit, and the chunks
// together must reproduce the folded state exactly.
func TestSnapshotChunksRespectMaxRecordBytes(t *testing.T) {
	st := NewState()
	sub := strings.Repeat("x", MaxSubscriberLen-4)
	const nsubs = 10000
	for i := 0; i < nsubs; i++ {
		k := UsageKey{Cycle: 1, Subscriber: fmt.Sprintf("%s%04d", sub, i)}
		st.Usage[k] = UsageAgg{UL: uint64(i), DL: uint64(2 * i), Records: 1}
	}
	const ncycles = 200000 // 1.6 MB of settled ids alone
	for c := uint64(1); c <= ncycles; c++ {
		st.Settled[c] = true
	}
	snaps := buildSnapshots(st)
	entries, settled := 0, 0
	for i, snap := range snaps {
		rec := Record{Kind: KindSnapshot, Snap: snap}
		if size := recordSize(&rec); size > MaxRecordBytes {
			t.Fatalf("snapshot chunk %d encodes to %d bytes > MaxRecordBytes", i, size)
		}
		entries += len(snap.Entries)
		settled += len(snap.Settled)
	}
	if entries != nsubs || settled != ncycles {
		t.Fatalf("chunks carry %d entries / %d settled cycles, want %d / %d", entries, settled, nsubs, ncycles)
	}
	// Folding the chunks back must reproduce the settled aggregates.
	back := NewState()
	for _, snap := range snaps {
		if err := back.Apply(&Record{Kind: KindSnapshot, Snap: snap}); err != nil {
			t.Fatal(err)
		}
	}
	if len(back.Settled) != ncycles || len(back.Usage) != nsubs {
		t.Fatalf("refold: %d settled / %d usage keys, want %d / %d", len(back.Settled), len(back.Usage), ncycles, nsubs)
	}
	probe := UsageKey{Cycle: 1, Subscriber: fmt.Sprintf("%s%04d", sub, 123)}
	if agg := back.Usage[probe]; agg.UL != 123 || agg.DL != 246 || agg.Records != 1 {
		t.Fatalf("refold aggregate %+v", back.Usage[probe])
	}
}

// flakyFS fails the first Create of a new-generation segment, then
// behaves normally — a transient "disk full" in the middle of
// compaction.
type flakyFS struct {
	*MemFS
	failPrefix string
	spent      bool
}

func (f *flakyFS) Create(name string) (File, error) {
	if !f.spent && strings.Contains(name, f.failPrefix) {
		f.spent = true
		return nil, errors.New("disk full")
	}
	return f.MemFS.Create(name)
}

// TestCompactFailureLeavesAppendable: a compaction that fails before
// the CURRENT switch must leave the ledger appendable in the old
// generation. The old code returned with the active segment handle
// closed and nil — the next Append dereferenced it and panicked,
// wedging the ledger over a recoverable error.
func TestCompactFailureLeavesAppendable(t *testing.T) {
	const dir = "led"
	fsys := &flakyFS{MemFS: NewMemFS(), failPrefix: "g000002"}
	l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-1", UL: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.MarkSettled(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err == nil {
		t.Fatal("Compact should fail when the new generation cannot be created")
	}
	// The failed compaction must not wedge (or panic) the ledger: the
	// old generation is still live and appends keep landing in it.
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 2, Subscriber: "imsi-1", UL: 9}); err != nil {
		t.Fatalf("Append after failed compaction: %v", err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(fsys, dir, "imsi-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UL != 9 || rep.Records != 1 {
		t.Fatalf("post-failure record not readable: %+v", rep)
	}
	// And the retried compaction succeeds once the fault clears.
	if err := l.Compact(); err != nil {
		t.Fatalf("retried Compact: %v", err)
	}
	rep, err = Audit(fsys, dir, "imsi-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UL != 5 || !rep.Settled {
		t.Fatalf("settled cycle lost across failed+retried compaction: %+v", rep)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
