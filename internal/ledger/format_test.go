package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// goldenDirSHA256 is the digest of the directory TestGoldenDiskFormat
// builds. It changes only if the bytes a ledger writes change: segment
// names, the segment header, the frame, a CDR or PoC payload, CURRENT
// or the repair. Every ledger already on disk depends on those, so a
// new value here is a format break, not a test to update.
const goldenDirSHA256 = "79ba2b7208a8e16d0d44ec55f110279710f8d6937f6f33f5d2dd90429507104d"

// goldenRecords is a fixed sequence of CDRs and PoCs, every third a
// PoC with a proof of growing length.
func goldenRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		sub := fmt.Sprintf("imsi-%03d", i%5)
		if i%3 == 2 {
			proof := make([]byte, 16+i)
			for j := range proof {
				proof[j] = byte(i*31 + j)
			}
			recs[i] = Record{Kind: KindPoC, Cycle: uint64(1 + i/10), At: int64(i) * 1e9,
				Subscriber: sub, X: uint64(965000 + i), Rounds: uint32(1 + i%4), Proof: proof}
			continue
		}
		recs[i] = Record{Kind: KindCDR, Cycle: uint64(1 + i/10), At: int64(i) * 1e9,
			Subscriber: sub, Seq: uint32(i), ChargingID: uint32(7000 + i),
			TimeUsage: int64(i) * 250, UL: uint64(1000 * i), DL: uint64(3000*i + 17)}
	}
	return recs
}

// TestGoldenDiskFormat pins the bytes a ledger writes: appends that
// span several segments, a torn tail repaired by Open, and one more
// append after the repair must give a directory whose digest over its
// sorted (name, content) pairs equals goldenDirSHA256.
func TestGoldenDiskFormat(t *testing.T) {
	const dir = "led"
	const segBytes = 512
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: segBytes, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenRecords(25)
	for i := range recs[:24] {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	last := lastSegment(t, fsys, dir)
	if _, idx, _ := parseSegName(last); idx < 3 {
		t.Fatalf("appends span %d segments, want at least 3", idx)
	}
	// Cut the last frame short; Open repairs the tail to 23 records.
	seg := join(dir, last)
	truncateFile(t, fsys, seg, len(readFile(t, fsys, seg))-5)
	replayed := 0
	l, err = Open(Options{Dir: dir, FS: fsys, SegmentBytes: segBytes, SyncEvery: 1},
		func(*Record) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 23 {
		t.Fatalf("repair kept %d records, want 23", replayed)
	}
	if err := l.Append(&recs[24]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	files := dirContents(t, fsys, dir)
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var all []byte
	for _, name := range names {
		all = fmt.Appendf(all, "%s\x00%d\x00", name, len(files[name]))
		all = append(all, files[name]...)
	}
	sum := sha256.Sum256(all)
	if got := hex.EncodeToString(sum[:]); got != goldenDirSHA256 {
		t.Fatalf("ledger directory digest %s, want %s (files %v)", got, goldenDirSHA256, names)
	}
}

// TestOpenRefusesUndecodableFrame: a frame whose CRC verifies but
// whose payload does not decode was written whole, so no crash made
// it, and the records behind it are intact receipts. Open used to
// treat it as a torn tail and cut them away: here, three PoCs with the
// 2nd rewritten to kind 9 under a fresh CRC, Open returned nil and cut
// the segment from 168 to 72 bytes. Replay, Open and Reopen must all
// return ErrCorrupt naming the segment and the frame's offset, and
// leave every file as it was. A frame of a retired kind (here a
// hand-framed kind 3, once a settle mark) is refused the same way.
func TestOpenRefusesUndecodableFrame(t *testing.T) {
	const dir = "led"
	pocs := make([]Record, 3)
	for i := range pocs {
		pocs[i] = Record{Kind: KindPoC, Cycle: 1, Subscriber: "s", X: 965000, Rounds: 1, Proof: []byte{byte(i), 0xAA}}
	}
	frameBytes := frameHeader + recordSize(&pocs[0])
	for _, tc := range []struct {
		name   string
		damage func(seg []byte) []byte
	}{
		{"kind9", func(seg []byte) []byte {
			payload := seg[segHeader+frameBytes+frameHeader : segHeader+2*frameBytes]
			payload[0] = 9
			binary.LittleEndian.PutUint32(seg[segHeader+frameBytes+4:], crc32.Checksum(payload, castagnoli))
			return seg
		}},
		{"retiredKind3", func(seg []byte) []byte {
			// A kind-3 payload as it was once written: kind, cycle,
			// arrival stamp and an empty subscriber, nothing else.
			mark := appendU32(appendU64(appendU64([]byte{3}, 1), 0), 0)
			out := append([]byte(nil), seg[:segHeader+frameBytes]...)
			out = appendFrame(out, mark)
			return append(out, seg[segHeader+frameBytes:]...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := NewMemFS()
			l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pocs {
				if err := l.Append(&pocs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			name := lastSegment(t, fsys, dir)
			seg := join(dir, name)
			writeFile(t, fsys, seg, tc.damage(readFile(t, fsys, seg)))
			before := dirContents(t, fsys, dir)
			where := fmt.Sprintf("%s at byte %d", name, segHeader+frameBytes)

			var got []Record
			if err := Replay(fsys, dir, collect(&got)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), where) {
				t.Fatalf("Replay err = %v, want ErrCorrupt naming %s", err, where)
			}
			requirePrefix(t, "replay", got, pocs[:1])
			if len(got) != 1 {
				t.Fatalf("Replay surfaced %d records, want the 1 before the frame", len(got))
			}
			got = got[:0]
			if _, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, collect(&got)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), where) {
				t.Fatalf("Open err = %v, want ErrCorrupt naming %s", err, where)
			}
			if after := dirContents(t, fsys, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("Open changed the directory: %s is %d bytes, was %d", name, len(after[name]), len(before[name]))
			}
			if err := l.Reopen(nil); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Reopen err = %v, want ErrCorrupt", err)
			}
			if err := l.Append(&pocs[0]); !errors.Is(err, ErrClosed) {
				t.Fatalf("Append after a refused Reopen: err = %v, want ErrClosed", err)
			}
			if after := dirContents(t, fsys, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("Reopen changed the directory")
			}
		})
	}
}
