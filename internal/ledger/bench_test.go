package ledger

import (
	"fmt"
	"testing"
)

// BenchmarkAppend measures appends/sec at the three group-commit
// windows archived in BENCH_ledger.json: every append synced, the
// default batch of 16, and a deep batch of 256. MemFS keeps the
// numbers about the ledger (framing + CRC + group-commit accounting),
// not about one host's disk; tlcbench -ledger-bench runs the same
// sweep against the real filesystem.
func BenchmarkAppend(b *testing.B) {
	for _, syncEvery := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("sync%d", syncEvery), func(b *testing.B) {
			fsys := NewMemFS()
			l, err := Open(Options{Dir: "led", FS: fsys, SegmentBytes: 1 << 30, SyncEvery: syncEvery}, nil)
			if err != nil {
				b.Fatal(err)
			}
			rec := Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-000001",
				Seq: 1, ChargingID: 2, TimeUsage: 3, UL: 4096, DL: 65536}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Seq = uint32(i)
				if err := l.Append(&rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkReplay measures startup replay throughput over a segmented
// log, in memory and on the real disk. On DirFS, B/op is the read
// buffer plus one copy of each subscriber id, whatever the segment
// size; MemFS adds the snapshot copy its Open takes.
func BenchmarkReplay(b *testing.B) {
	b.Run("MemFS", func(b *testing.B) { benchReplay(b, NewMemFS(), "led") })
	b.Run("DirFS", func(b *testing.B) { benchReplay(b, DirFS{}, b.TempDir()) })
}

func benchReplay(b *testing.B, fsys FS, dir string) {
	l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: 1 << 20, SyncEvery: 256}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rec := Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-000001",
		Seq: 1, ChargingID: 2, TimeUsage: 3, UL: 4096, DL: 65536}
	const n = 10000
	for i := 0; i < n; i++ {
		rec.Seq = uint32(i)
		if err := l.Append(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := Replay(fsys, dir, func(*Record) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d of %d", count, n)
		}
	}
}
