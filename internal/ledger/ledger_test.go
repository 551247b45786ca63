package ledger

import (
	"fmt"
	"testing"

	"tlc/internal/sim"
)

// TestPropPrefixRoundTrip is the basic durability property: append a
// sequence of records with random payload sizes spanning 0..64KiB,
// reopen, and replay must return the exact sequence — byte-for-byte,
// order preserved, nothing invented.
func TestPropPrefixRoundTrip(t *testing.T) {
	const dir = "led"
	rng := sim.NewRNG(0x60D)
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 256 << 10, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 50; i++ {
		// Sizes cover the extremes: empty proof, tiny, and up to
		// 64KiB, crossing several rotation boundaries.
		size := 0
		switch rng.Intn(4) {
		case 0:
			size = rng.Intn(16)
		case 1:
			size = rng.Intn(1 << 10)
		default:
			size = rng.Intn(64 << 10)
		}
		proof := make([]byte, size)
		for j := range proof {
			proof[j] = byte(rng.Intn(256))
		}
		rec := Record{
			Kind:       KindPoC,
			Cycle:      uint64(i % 3),
			Subscriber: fmt.Sprintf("imsi-%d", i%7),
			X:          uint64(rng.Int63()),
			Rounds:     uint32(rng.Intn(40)),
			Proof:      proof,
		}
		if err := l.Append(&rec); err != nil {
			t.Fatalf("append %d (size %d): %v", i, size, err)
		}
		want = append(want, rec)
	}
	var got []Record
	if err := l.Reopen(collect(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d of %d records", len(got), len(want))
	}
	requirePrefix(t, "round trip", got, want)
}

// TestPropOversizeRecordRejected: a record beyond MaxRecordBytes must
// be refused up front, not torn mid-segment.
func TestPropOversizeRecordRejected(t *testing.T) {
	fsys := NewMemFS()
	l, err := Open(Options{Dir: "led", FS: fsys}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindPoC, Subscriber: "imsi-1", Proof: make([]byte, MaxRecordBytes)}
	if err := l.Append(&rec); err != ErrRecordTooLarge {
		t.Fatalf("oversize append: got %v, want ErrRecordTooLarge", err)
	}
	// The refusal must not have poisoned or torn anything.
	small := Record{Kind: KindPoC, Cycle: 9}
	if err := l.Append(&small); err != nil {
		t.Fatalf("append after refusal: %v", err)
	}
	var got []Record
	if err := l.Reopen(collect(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Kind != KindPoC || got[0].Cycle != 9 {
		t.Fatalf("replay after refusal: %+v", got)
	}
}

// TestAuditReport: the audit path answers (subscriber, cycle) with the
// matching CDRs, their aggregate and the matching PoCs, and leaves out
// other subscribers and other cycles.
func TestAuditReport(t *testing.T) {
	const dir = "led"
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendOK := func(rec Record) {
		t.Helper()
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	appendOK(Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-7", UL: 100, DL: 200})
	appendOK(Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-7", UL: 1, DL: 2})
	appendOK(Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-8", UL: 9999}) // other sub
	appendOK(Record{Kind: KindCDR, Cycle: 2, Subscriber: "imsi-7", UL: 5})    // other cycle
	appendOK(Record{Kind: KindPoC, Cycle: 1, Subscriber: "imsi-7", X: 42, Rounds: 3, Proof: []byte{1, 2, 3}})
	appendOK(Record{Kind: KindPoC, Cycle: 1, Subscriber: "imsi-8", X: 7}) // other sub
	appendOK(Record{Kind: KindPoC, Cycle: 2, Subscriber: "imsi-7", X: 8}) // other cycle

	check := func(label string) {
		t.Helper()
		rep := mustAudit(t, fsys, dir)
		if rep.UL != 101 || rep.DL != 202 || rep.Records != 2 {
			t.Fatalf("%s: aggregate %d/%d over %d records, want 101/202 over 2", label, rep.UL, rep.DL, rep.Records)
		}
		if len(rep.CDRs) != 2 {
			t.Fatalf("%s: %d CDRs, want the 2 of imsi-7 in cycle 1", label, len(rep.CDRs))
		}
		if len(rep.PoCs) != 1 || rep.PoCs[0].X != 42 {
			t.Fatalf("%s: PoCs %+v", label, rep.PoCs)
		}
		if rep.Volume() != 303 {
			t.Fatalf("%s: volume %d", label, rep.Volume())
		}
	}
	check("live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("after close")
}

func mustAudit(t *testing.T, fsys FS, dir string) *AuditReport {
	t.Helper()
	rep, err := Audit(fsys, dir, "imsi-7", 1)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRotationProducesSegments: a small segment threshold must yield
// multiple segment files, and replay must walk them in order.
func TestRotationProducesSegments(t *testing.T) {
	const dir = "led"
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 512, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 0x707, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, gap, err := listSegments(fsys, dir, 1)
	if err != nil || gap != nil {
		t.Fatal(err, gap)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	var got []Record
	if err := Replay(fsys, dir, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d of %d across %d segments", len(got), len(want), len(segs))
	}
	requirePrefix(t, "rotation", got, want)
}

// TestDirFSRoundTrip exercises the production filesystem end to end
// on a real temp directory: append, close, reopen, audit.
func TestDirFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10, SyncEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 0xD15C, 30)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	l2, err := Open(Options{Dir: dir, SegmentBytes: 1 << 10}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("disk replay %d of %d", len(got), len(want))
	}
	requirePrefix(t, "disk", got, want)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayRecordLargerThanReadBuffer: a record larger than the
// scanner's 64 KiB read buffer (a 512 KiB proof) must replay intact,
// between two small records, through Replay and through Open.
func TestReplayRecordLargerThanReadBuffer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0xB16)
	proof := make([]byte, 512<<10)
	for i := range proof {
		proof[i] = byte(rng.Intn(256))
	}
	want := []Record{
		{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-1", UL: 10, DL: 20},
		{Kind: KindPoC, Cycle: 1, Subscriber: "imsi-1", X: 30, Rounds: 2, Proof: proof},
		{Kind: KindPoC, Cycle: 1},
	}
	for i := range want {
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var replayed []Record
	if err := Replay(nil, dir, collect(&replayed)); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(want) {
		t.Fatalf("Replay surfaced %d of %d records", len(replayed), len(want))
	}
	requirePrefix(t, "replay", replayed, want)
	var opened []Record
	l, err = Open(Options{Dir: dir}, collect(&opened))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(opened) != len(want) {
		t.Fatalf("Open replayed %d of %d records", len(opened), len(want))
	}
	requirePrefix(t, "open", opened, want)
}
