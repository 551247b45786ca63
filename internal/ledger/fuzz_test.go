package ledger

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// FuzzLedgerReplay is the adversarial-surface guard for the segment
// scanner (the ledger's analogue of protocol.FuzzReadFrame). Each
// input is the frame region of a segment: arbitrary bytes behind a
// valid header must never panic the scanner, never verify more bytes
// than exist, and — the core invariant — never surface a corrupt
// record: every record handed to the callback, framed again, must
// equal exactly the bytes it was read from. The scan runs twice, over
// the whole input and one byte per read, and both runs must reach the
// same verdict: how reads are chunked can never change what verifies.
func FuzzLedgerReplay(f *testing.F) {
	// Seeds: an empty log, one valid record, two records with a torn
	// tail, a CRC-flipped record, an absurd length prefix, and a
	// full segment image with header.
	var one []byte
	rec := Record{Kind: KindCDR, Cycle: 3, At: 42, Subscriber: "imsi-001",
		Seq: 7, ChargingID: 9, TimeUsage: 100, UL: 1000, DL: 2000}
	one = appendFrame(one, appendRecord(nil, &rec))
	f.Add([]byte{})
	f.Add(append([]byte(nil), one...))
	poc := Record{Kind: KindPoC, Cycle: 1, Subscriber: "imsi-002",
		X: 5, Rounds: 2, Proof: []byte{0xde, 0xad}}
	two := appendFrame(append([]byte(nil), one...), appendRecord(nil, &poc))
	f.Add(two[:len(two)-3]) // torn tail
	flipped := append([]byte(nil), one...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)                                    // CRC mismatch
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // absurd length
	hdr := segmentHeader(1, 1)
	f.Add(append(hdr[:], one...)) // full segment image

	f.Fuzz(func(t *testing.T, data []byte) {
		seg := append(hdr[:], data...)
		whole, frames := scanChecked(t, seg, bytes.NewReader(seg))
		split, splitFrames := scanChecked(t, seg, iotest.OneByteReader(bytes.NewReader(seg)))
		if whole.verified != split.verified || whole.size != split.size || fmt.Sprint(whole.tear) != fmt.Sprint(split.tear) {
			t.Fatalf("one-byte reads changed the verdict: whole %+v, split %+v", whole, split)
		}
		if len(frames) != len(splitFrames) {
			t.Fatalf("one-byte reads surfaced %d records, whole reads %d", len(splitFrames), len(frames))
		}
		// The raw input read as a whole segment exercises the header
		// check; it too must stay within the bytes that exist.
		end, err := newScanner().scan(bytes.NewReader(data), 1, 1, nil)
		if err != nil || end.verified > end.size || end.size != int64(len(data)) {
			t.Fatalf("raw segment: %+v, %v for %d bytes", end, err, len(data))
		}
	})
}

// scanChecked scans seg, read through r, and checks every surfaced
// record against the bytes it came from. It returns where the scan
// stopped and the surfaced records, framed again.
func scanChecked(t *testing.T, seg []byte, r io.Reader) (segEnd, [][]byte) {
	t.Helper()
	off := segHeader
	var frames [][]byte
	end, err := newScanner().scan(r, 1, 1, func(got *Record) error {
		frame := appendFrame(nil, appendRecord(nil, got))
		if off+len(frame) > len(seg) || !bytes.Equal(frame, seg[off:off+len(frame)]) {
			t.Fatalf("corrupt record surfaced at byte %d: framed again it reads %x", off, frame)
		}
		frames = append(frames, frame)
		off += len(frame)
		return nil
	})
	switch {
	case err != nil:
		t.Fatalf("scan of an in-memory segment failed: %v", err)
	case end.verified != int64(off):
		t.Fatalf("verified prefix %d does not match the surfaced records' extent %d", end.verified, off)
	case end.size != int64(len(seg)):
		t.Fatalf("scan counted %d bytes of a %d-byte segment", end.size, len(seg))
	case end.tear == nil && end.verified != end.size:
		t.Fatalf("clean scan stopped early: %d of %d bytes", end.verified, end.size)
	}
	return end, frames
}

// TestSeedCorpusPresent pins the checked-in seed corpus: the fuzz
// stage in verify.sh starts from these inputs, so losing them
// silently weakens the smoke.
func TestSeedCorpusPresent(t *testing.T) {
	names, err := DirFS{}.ReadDir("testdata/fuzz/FuzzLedgerReplay")
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(names) < 3 {
		t.Fatalf("seed corpus has %d entries, want at least 3", len(names))
	}
}
