package ledger

import (
	"runtime"
	"testing"
)

// TestZeroAllocAppendEncode guards the hot encode path: once the
// ledger's reused buffers are warm, framing a record must not
// allocate — the group-commit batch loop runs once per settled
// session and must not feed the GC. (Skips itself under -race, whose
// instrumentation perturbs the counts; verify.sh runs the allocs
// stage without -race.)
func TestZeroAllocAppendEncode(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rec := Record{
		Kind:       KindCDR,
		Cycle:      9,
		At:         123456789,
		Subscriber: "imsi-042",
		Seq:        7,
		ChargingID: 99,
		TimeUsage:  1000,
		UL:         4096,
		DL:         16384,
	}
	payload := make([]byte, 0, 256)
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		payload = appendRecord(payload[:0], &rec)
		buf = appendFrame(buf[:0], payload)
	})
	if allocs != 0 {
		t.Fatalf("record encode path allocates %.1f per op, want 0", allocs)
	}
}

// TestZeroAllocAppendSteadyState drives the full Append path against
// a MemFS whose file storage is pre-grown: after warm-up the only
// allocations allowed are the MemFS content append's amortized
// growth, which pre-growing eliminates.
func TestZeroAllocAppendSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	fsys := NewMemFS()
	l, err := Open(Options{Dir: "led", FS: fsys, SegmentBytes: 1 << 30, SyncEvery: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-grow the in-memory segment so content append never
	// reallocates during the measured window.
	fsys.mu.Lock()
	f := fsys.files[join("led", segName(1, 1))]
	grown := make([]byte, len(f.content), 64<<20)
	copy(grown, f.content)
	f.content = grown
	fsys.mu.Unlock()

	rec := Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-001", UL: 1, DL: 2}
	// Warm the encode buffers.
	for i := 0; i < 32; i++ {
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %.1f per op, want 0", allocs)
	}
}

// TestReplayAllocsPerRecord: reads stream each segment through a fixed
// buffer, so what Replay and Open allocate follows the records, not
// the segments. A real-disk ledger of four full segments of CDRs must
// replay allocating under half a framed record per record; a reader
// that loads whole segments allocates every segment byte, more than a
// framed record per record.
func TestReplayAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	dir := t.TempDir()
	const segBytes = 1 << 20
	l, err := Open(Options{Dir: dir, SegmentBytes: segBytes, SyncEvery: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-000001",
		Seq: 1, ChargingID: 2, TimeUsage: 3, UL: 4096, DL: 65536}
	framed := frameHeader + recordSize(&rec)
	n := 4 * ((segBytes - segHeader) / framed)
	for i := 0; i < n; i++ {
		rec.Seq = uint32(i)
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, read := range []struct {
		name string
		run  func(fn func(*Record) error) error
	}{
		{"Replay", func(fn func(*Record) error) error { return Replay(DirFS{}, dir, fn) }},
		{"Open", func(fn func(*Record) error) error {
			l, err := Open(Options{Dir: dir, SegmentBytes: segBytes}, fn)
			if err != nil {
				return err
			}
			return l.Close()
		}},
	} {
		count := 0
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := read.run(func(*Record) error { count++; return nil })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", read.name, err)
		}
		if count != n {
			t.Fatalf("%s: replayed %d of %d records", read.name, count, n)
		}
		perRecord := float64(after.TotalAlloc-before.TotalAlloc) / float64(count)
		if perRecord >= float64(framed)/2 {
			t.Fatalf("%s allocates %.1f B per %d-byte record, want under half of it", read.name, perRecord, framed)
		}
		t.Logf("%s: %.1f B allocated per %d-byte record over %d records", read.name, perRecord, framed, n)
	}
}
