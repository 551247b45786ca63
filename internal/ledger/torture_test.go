package ledger

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/iotest"

	"tlc/internal/sim"
)

// The torture battery: the ledger's one promise is that after any
// crash — power cut mid-write, device error mid-batch, process kill
// mid-rotation — reopen-and-replay yields a verified record prefix:
// every record fully present or fully absent, never corrupt. These
// tests attack that promise from three directions: chopping the log
// at every byte offset, flipping every byte, and injecting a torn
// write at every cumulative byte count.

// mkRecord derives the i-th torture record deterministically from an
// RNG stream: a mix of CDRs and PoCs with varied sizes, down to the
// smallest live record (a PoC with an empty subscriber and an empty
// proof), so small frames keep their share of every sweep.
func mkRecord(rng *sim.RNG, i int) Record {
	switch rng.Intn(8) {
	case 0:
		proof := make([]byte, rng.Intn(200))
		for j := range proof {
			proof[j] = byte(rng.Intn(256))
		}
		return Record{
			Kind:       KindPoC,
			Cycle:      uint64(rng.Intn(4)),
			Subscriber: fmt.Sprintf("imsi-%03d", rng.Intn(16)),
			X:          uint64(rng.Int63()),
			Rounds:     uint32(rng.Intn(30)),
			Proof:      proof,
		}
	case 1:
		return Record{Kind: KindPoC, Cycle: uint64(rng.Intn(4))}
	default:
		return Record{
			Kind:       KindCDR,
			Cycle:      uint64(rng.Intn(4)),
			At:         int64(i) * 1e6,
			Subscriber: fmt.Sprintf("imsi-%03d", rng.Intn(16)),
			Seq:        uint32(i),
			ChargingID: uint32(rng.Intn(1 << 20)),
			TimeUsage:  int64(rng.Intn(1e6)),
			UL:         uint64(rng.Intn(1 << 16)),
			DL:         uint64(rng.Intn(1 << 20)),
		}
	}
}

func recordsEqual(a, b *Record) bool {
	if a.Kind != b.Kind || a.Cycle != b.Cycle || a.At != b.At ||
		a.Subscriber != b.Subscriber || a.Seq != b.Seq ||
		a.ChargingID != b.ChargingID || a.TimeUsage != b.TimeUsage ||
		a.UL != b.UL || a.DL != b.DL || a.X != b.X || a.Rounds != b.Rounds {
		return false
	}
	if len(a.Proof) != len(b.Proof) {
		return false
	}
	for i := range a.Proof {
		if a.Proof[i] != b.Proof[i] {
			return false
		}
	}
	return true
}

// requirePrefix asserts got is exactly want[:len(got)].
func requirePrefix(t *testing.T, label string, got, want []Record) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: replayed %d records, only %d were written", label, len(got), len(want))
	}
	for i := range got {
		if !recordsEqual(&got[i], &want[i]) {
			t.Fatalf("%s: record %d corrupt: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// fill appends n deterministic records and returns them. The ledger
// is left open.
func fill(t *testing.T, l *Ledger, seed int64, n int) []Record {
	t.Helper()
	rng := sim.NewRNG(seed)
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		rec := mkRecord(rng, i)
		if err := l.Append(&rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// collect is a replay callback that clones records into *out.
func collect(out *[]Record) func(*Record) error {
	return func(rec *Record) error {
		*out = append(*out, cloneRecord(rec))
		return nil
	}
}

// cloneFS copies every durable file of a cleanly closed ledger into a
// fresh MemFS so each torture case mutates its own copy.
func cloneFS(t *testing.T, src *MemFS, dir string) *MemFS {
	t.Helper()
	dst := NewMemFS()
	if err := dst.MkdirAll(dir); err != nil {
		t.Fatal(err)
	}
	names, err := src.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		writeFile(t, dst, join(dir, name), readFile(t, src, join(dir, name)))
	}
	return dst
}

// lastSegment returns the name of the highest-index live segment.
func lastSegment(t *testing.T, fsys FS, dir string) string {
	t.Helper()
	gen, err := readCurrent(fsys, dir)
	if err != nil || gen == 0 {
		t.Fatalf("readCurrent: gen=%d err=%v", gen, err)
	}
	segs, gap, err := listSegments(fsys, dir, gen)
	if err != nil || gap != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %d segs, gap=%v err=%v", len(segs), gap, err)
	}
	return segs[len(segs)-1].name
}

// readViews are the ways the sweeps read a damaged ledger: through
// MemFS's own readers, and through readers that return half of what
// each Read asks for (iotest.HalfReader). Behind the scanner's 64 KiB
// read buffer a half read splits large reads (repair's prefix copy,
// a payload longer than the buffer); FuzzLedgerReplay's one-byte run
// splits every frame. No split may change a verdict.
var readViews = []struct {
	name string
	wrap func(*MemFS) FS
}{
	{"whole", func(m *MemFS) FS { return m }},
	{"half", func(m *MemFS) FS { return halfFS{m} }},
}

// halfFS is a MemFS whose Open wraps each reader in iotest.HalfReader.
type halfFS struct{ *MemFS }

func (h halfFS) Open(name string) (io.ReadCloser, error) {
	r, err := h.MemFS.Open(name)
	if err != nil {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{iotest.HalfReader(r), r}, nil
}

// readFile returns the whole content of name, read through fsys.Open.
func readFile(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //tlcvet:allow errdiscard — test read; the content, not Close, decides the test
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeFile replaces name with data, durable.
func writeFile(t *testing.T, fsys *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// truncateFile rewrites name to its first k bytes, durable.
func truncateFile(t *testing.T, fsys *MemFS, name string, k int) {
	t.Helper()
	writeFile(t, fsys, name, readFile(t, fsys, name)[:k])
}

// segmentEnds redoes the writer's size accounting for want at segment
// size segBytes, independently of the scanner under test: it returns
// how many records landed wholly in segments before lastIdx and the
// end offset of each record within segment lastIdx.
func segmentEnds(want []Record, segBytes int, lastIdx uint64) (prior int, ends []int) {
	curSize := segHeader
	segIdx := uint64(1)
	for i := range want {
		framed := frameHeader + recordSize(&want[i])
		if curSize > segHeader && curSize+framed > segBytes {
			segIdx++
			curSize = segHeader
		}
		curSize += framed
		if segIdx == lastIdx {
			ends = append(ends, curSize)
		} else if segIdx < lastIdx {
			prior++
		}
	}
	return prior, ends
}

// TestTortureChopSweep cuts the final segment of a cleanly written
// ledger at EVERY byte offset and reopens: replay must recover the
// exact record prefix that fits in the surviving bytes — computed
// independently from the known record sizes, so a framing bug cannot
// hide by being self-consistent. Before the reopen repairs it, the
// read-only Replay must surface that same prefix and call the cut
// clean only at a frame boundary: anywhere else it is ErrCorrupt.
func TestTortureChopSweep(t *testing.T) {
	const dir = "led"
	base := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: base, SegmentBytes: 1 << 10, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 0x517, 60)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	last := lastSegment(t, base, dir)
	lastData := readFile(t, base, join(dir, last))

	_, lastIdx, _ := parseSegName(last)
	prior, ends := segmentEnds(want, 1<<10, lastIdx)
	wantLast := segHeader
	if len(ends) > 0 {
		wantLast = ends[len(ends)-1]
	}
	if wantLast != len(lastData) {
		t.Fatalf("size accounting drifted: computed %d, real last segment %d bytes", wantLast, len(lastData))
	}

	for k := 0; k <= len(lastData); k++ {
		expect, boundary := prior, k == segHeader
		for _, end := range ends {
			if end <= k {
				expect++
			}
			boundary = boundary || end == k
		}
		for _, view := range readViews {
			mem := cloneFS(t, base, dir)
			truncateFile(t, mem, join(dir, last), k)
			fsys := view.wrap(mem)
			label := fmt.Sprintf("chop %d, %s reads", k, view.name)
			var replayed []Record
			err := Replay(fsys, dir, collect(&replayed))
			switch {
			case boundary && err != nil:
				t.Fatalf("%s: replay of a cut at a frame boundary: %v", label, err)
			case !boundary && !errors.Is(err, ErrCorrupt):
				t.Fatalf("%s: replay of a torn tail: err = %v, want ErrCorrupt", label, err)
			case len(replayed) != expect:
				t.Fatalf("%s: replay surfaced %d records, want %d", label, len(replayed), expect)
			}
			requirePrefix(t, label+": replay", replayed, want)

			var got []Record
			l2, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 1 << 10, SyncEvery: 1}, collect(&got))
			if err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			if len(got) != expect {
				t.Fatalf("%s: recovered %d records, want %d", label, len(got), expect)
			}
			requirePrefix(t, label, got, want)
			// The repaired log must replay identically a second time.
			var again []Record
			if err := l2.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			if err := Replay(fsys, dir, collect(&again)); err != nil {
				t.Fatalf("%s: re-replay: %v", label, err)
			}
			if len(again) != expect {
				t.Fatalf("%s: second replay %d records, want %d", label, len(again), expect)
			}
		}
	}
}

// TestTortureBitFlipSweep corrupts every byte of the final segment in
// turn (XOR 0x40) and reopens: the CRC must catch the damage, so the
// replayed records are always an intact prefix — a corrupt record
// must never surface. Before the reopen repairs it, the read-only
// Replay must report every flip as ErrCorrupt after surfacing exactly
// the records that end before the flipped byte.
func TestTortureBitFlipSweep(t *testing.T) {
	const dir = "led"
	base := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: base, SegmentBytes: 1 << 12, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 0xF11A, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last := lastSegment(t, base, dir)
	lastData := readFile(t, base, join(dir, last))
	_, lastIdx, _ := parseSegName(last)
	prior, ends := segmentEnds(want, 1<<12, lastIdx)
	for k := 0; k < len(lastData); k++ {
		data := append([]byte(nil), lastData...)
		data[k] ^= 0x40
		expect := prior
		for _, end := range ends {
			if end <= k {
				expect++
			}
		}
		for _, view := range readViews {
			mem := cloneFS(t, base, dir)
			writeFile(t, mem, join(dir, last), data)
			fsys := view.wrap(mem)
			label := fmt.Sprintf("flip %d, %s reads", k, view.name)
			var replayed []Record
			if err := Replay(fsys, dir, collect(&replayed)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: replay err = %v, want ErrCorrupt", label, err)
			}
			if len(replayed) != expect {
				t.Fatalf("%s: replay surfaced %d records, want the %d before the flip", label, len(replayed), expect)
			}
			requirePrefix(t, label+": replay", replayed, want)

			var got []Record
			if _, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, collect(&got)); err != nil {
				t.Fatalf("%s: reopen: %v", label, err)
			}
			requirePrefix(t, label, got, want)
		}
	}
}

// TestTortureFailpointSweep arms the injectable WriteSyncer failpoint
// at every cumulative byte count, runs the workload until the device
// "dies", machine-crashes (volatile bytes discarded), reopens and
// replays. With SyncEvery=1 every successful append was covered by an
// fsync, so recovery must yield exactly the successfully appended
// records.
func TestTortureFailpointSweep(t *testing.T) {
	const dir = "led"
	const n = 30
	// First pass with no failpoint measures the total bytes written.
	probe := NewMemFS()
	lp, err := Open(Options{Dir: dir, FS: probe, SegmentBytes: 1 << 10, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, lp, 0xBEEF, n)
	if err := lp.Close(); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	names, err := probe.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		total += int64(len(readFile(t, probe, join(dir, name))))
	}

	step := int64(1)
	if testing.Short() {
		step = 37
	}
	for cut := int64(1); cut <= total; cut += step {
		fsys := NewMemFS()
		fsys.FailAfterBytes(cut)
		l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 1 << 10, SyncEvery: 1}, nil)
		if err != nil {
			// The failpoint can hit during Open itself; nothing
			// was promised durable, so nothing to verify.
			continue
		}
		rng := sim.NewRNG(0xBEEF)
		var acked []Record
		for i := 0; i < n; i++ {
			rec := mkRecord(rng, i)
			if err := l.Append(&rec); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("cut %d: append %d: unexpected error %v", cut, i, err)
				}
				break
			}
			acked = append(acked, rec)
		}
		l.Crash() // machine death: volatile page cache is gone

		var got []Record
		if err := l.Reopen(collect(&got)); err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(got) != len(acked) {
			t.Fatalf("cut %d: recovered %d records, %d were acked durable", cut, len(got), len(acked))
		}
		requirePrefix(t, fmt.Sprintf("cut %d", cut), got, acked)
	}
}

// TestTortureGroupCommitWindow crashes with a partially filled
// group-commit batch: recovery must keep every record covered by a
// sync barrier and may keep any prefix of the unsynced tail — but
// always a prefix, never a gap or a corrupt record.
func TestTortureGroupCommitWindow(t *testing.T) {
	const dir = "led"
	for _, syncEvery := range []int{2, 4, 16} {
		fsys := NewMemFS()
		l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: syncEvery}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := fill(t, l, 0xAB, 25)
		synced := (len(want) / syncEvery) * syncEvery
		l.Crash()
		var got []Record
		if err := l.Reopen(collect(&got)); err != nil {
			t.Fatal(err)
		}
		if len(got) < synced {
			t.Fatalf("SyncEvery=%d: recovered %d, but %d were covered by fsync", syncEvery, len(got), synced)
		}
		requirePrefix(t, fmt.Sprintf("SyncEvery=%d", syncEvery), got, want)

		// Process death (no page-cache loss) must lose nothing.
		fsys2 := NewMemFS()
		l2, err := Open(Options{Dir: dir, FS: fsys2, SyncEvery: syncEvery}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want2 := fill(t, l2, 0xCD, 25)
		var got2 []Record
		if err := l2.Reopen(collect(&got2)); err != nil {
			t.Fatal(err)
		}
		if len(got2) != len(want2) {
			t.Fatalf("SyncEvery=%d: process restart lost records: %d of %d", syncEvery, len(got2), len(want2))
		}
		requirePrefix(t, "process restart", got2, want2)
	}
}

// TestTortureConcurrentAppendCrash is the -race replay differential:
// several goroutines append interleaved per-stream sequences, the
// machine crashes, and after replay every stream must recover a
// per-stream prefix (the log's total order serializes the appends;
// losing stream A's record 3 but keeping its record 4 would be a
// hole, not a prefix).
func TestTortureConcurrentAppendCrash(t *testing.T) {
	const dir = "led"
	const streams = 4
	const perStream = 200
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 1 << 12, SyncEvery: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				rec := Record{
					Kind:       KindCDR,
					Cycle:      1,
					Subscriber: fmt.Sprintf("stream-%d", g),
					Seq:        uint32(i),
					UL:         uint64(i),
				}
				if err := l.Append(&rec); err != nil {
					t.Errorf("stream %d append %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Crash()

	next := make([]uint32, streams)
	err = l.Reopen(func(rec *Record) error {
		var g int
		if _, err := fmt.Sscanf(rec.Subscriber, "stream-%d", &g); err != nil {
			return fmt.Errorf("alien record %q", rec.Subscriber)
		}
		if rec.Seq != next[g] {
			return fmt.Errorf("stream %d: got seq %d, want %d (hole or reorder)", g, rec.Seq, next[g])
		}
		next[g]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Everything before the crash was appended; SyncEvery=8 means at
	// most 7 records (total, across streams) were in the unsynced
	// window, so each stream loses at most 7.
	for g := 0; g < streams; g++ {
		if int(next[g]) < perStream-7 {
			t.Fatalf("stream %d: recovered only %d of %d (window is 7)", g, next[g], perStream)
		}
	}
}
