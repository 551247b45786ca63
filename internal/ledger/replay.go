package ledger

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
)

// Segment header: [magic 8]["gen" u64 LE][idx u64 LE]. A segment whose
// header doesn't match is treated as torn at offset 0.
const segHeader = 24

var segMagic = [8]byte{'T', 'L', 'C', 'L', 'E', 'D', 'G', '1'}

func segmentHeader(gen, idx uint64) [segHeader]byte {
	var h [segHeader]byte
	copy(h[:8], segMagic[:])
	binary.LittleEndian.PutUint64(h[8:16], gen)
	binary.LittleEndian.PutUint64(h[16:24], idx)
	return h
}

// readBufBytes is the scanner's fixed read buffer: the FS sees reads
// of this size however small the records are.
const readBufBytes = 64 << 10

// scanner is the ledger's one segment decoder: Open and Replay (so
// Audit) read through it. It holds a fixed readBufBytes read
// buffer and one record buffer that grows to the largest frame seen
// (at most MaxRecordBytes), so a read holds one record, never a whole
// segment. One scanner serves every segment of a replay.
type scanner struct {
	br  *bufio.Reader
	hdr [segHeader]byte // segment header, then each frame header
	buf []byte          // the current frame's payload
	rec Record
	pos int64 // bytes consumed from the current segment
}

func newScanner() *scanner {
	return &scanner{br: bufio.NewReaderSize(nil, readBufBytes)}
}

// segEnd is where the scan of one segment stopped.
type segEnd struct {
	verified int64 // length of the verified prefix
	size     int64 // bytes in the segment
	tear     error // why the segment does not verify to its end; nil if it does
}

// scanFile opens segment seg of dir and scans it.
func (s *scanner) scanFile(fsys FS, dir string, seg segRef, fn func(*Record) error) (segEnd, error) {
	f, err := fsys.Open(join(dir, seg.name))
	if err != nil {
		return segEnd{}, fmt.Errorf("ledger: read segment: %w", err)
	}
	defer f.Close() //tlcvet:allow errdiscard — read-only handle; a failed close loses nothing
	return s.scan(f, seg.gen, seg.idx, fn)
}

// scan reads segment (gen, idx) from r and hands fn (which may be nil)
// every verified, decodable record in order. The segEnd says how far
// the segment verified and, if not to its end, why: a bad header, or a
// torn, corrupt or undecodable frame. err is a read failure, or fn's
// own error returned as is: neither is damage, so neither may trigger
// repair. scan never panics on arbitrary input, and how r splits its
// reads cannot change the outcome; the fuzz target FuzzLedgerReplay
// holds it to both.
func (s *scanner) scan(r io.Reader, gen, idx uint64, fn func(*Record) error) (segEnd, error) {
	s.br.Reset(r)
	s.pos = 0
	var end segEnd
	ok, err := s.fill(s.hdr[:])
	if err != nil {
		return end, err
	}
	if !ok {
		return s.torn(end, errShortFrame)
	}
	want := segmentHeader(gen, idx)
	for i := range want {
		if s.hdr[i] != want[i] {
			return s.torn(end, fmt.Errorf("ledger: segment header mismatch at byte %d", i))
		}
	}
	end.verified = segHeader
	for {
		fh := s.hdr[:frameHeader]
		if ok, err = s.fill(fh); err != nil {
			return end, err
		}
		if !ok {
			if s.pos == end.verified {
				end.size = s.pos
				return end, nil // the segment ends at a frame boundary
			}
			return s.torn(end, errShortFrame)
		}
		n := binary.LittleEndian.Uint32(fh[0:4])
		sum := binary.LittleEndian.Uint32(fh[4:8])
		if n == 0 || n > MaxRecordBytes {
			return s.torn(end, errBadLength)
		}
		if cap(s.buf) < int(n) {
			s.buf = make([]byte, n)
		}
		payload := s.buf[:n]
		if ok, err = s.fill(payload); err != nil {
			return end, err
		}
		if !ok {
			return s.torn(end, errShortBody)
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return s.torn(end, errBadCRC)
		}
		// The next frame overwrites payload, so what fn sees must not
		// alias it: decodeRecord copies Proof and every string out.
		if err := decodeRecord(payload, &s.rec); err != nil {
			// CRC says the bytes are what was written, but the
			// payload doesn't decode: a retired kind, a writer bug or
			// a hand-edited log. Refuse to surface it; Open refuses to
			// cut it too (errUndecodable).
			return s.torn(end, fmt.Errorf("%w: %v", errUndecodable, err))
		}
		if fn != nil {
			if err := fn(&s.rec); err != nil {
				return end, err
			}
		}
		end.verified = s.pos
	}
}

// fill reads len(p) bytes into p. ok is false, with a nil error, if
// the segment ends first.
func (s *scanner) fill(p []byte) (ok bool, err error) {
	n, err := io.ReadFull(s.br, p)
	s.pos += int64(n)
	switch err {
	case nil:
		return true, nil
	case io.EOF, io.ErrUnexpectedEOF:
		return false, nil
	}
	return false, fmt.Errorf("ledger: read segment: %w", err)
}

// errUndecodable marks a scan that stopped at a whole, CRC-verified
// frame whose payload does not decode. No crash writes such a frame,
// so it is not a torn tail to repair: Open refuses the log instead.
var errUndecodable = errors.New("ledger: intact frame does not decode")

// torn ends a scan at the damage why, found at end.verified. It drains
// the rest of the segment so that end.size counts every byte: Open
// reports how many bytes its repair cuts.
func (s *scanner) torn(end segEnd, why error) (segEnd, error) {
	n, err := io.Copy(io.Discard, s.br)
	if err != nil {
		return end, fmt.Errorf("ledger: read segment: %w", err)
	}
	end.size = s.pos + n
	end.tear = why
	return end, nil
}

// ErrNoLedger is returned by Replay (and so Audit) when the directory
// exists but holds no ledger generation — nothing was ever appended
// there.
var ErrNoLedger = errors.New("ledger: no ledger")

// ErrDirNotExist is returned by Replay (and so Audit) when the ledger
// directory itself does not exist. It gets its own identity because
// for an audit query it almost always means a mistyped -ledger-dir,
// not a legitimately empty store.
var ErrDirNotExist = errors.New("ledger: directory does not exist")

// ErrCorrupt is returned by Replay (and so Audit) at the first record
// it cannot verify, after fn has seen every record before it. Replay
// never repairs. Open is the one path that truncates a torn tail
// away; it returns ErrCorrupt for the damage no crash makes, a missing
// segment or a frame that verifies but does not decode.
var ErrCorrupt = errors.New("ledger: corrupt log")

// Replay streams every verified record of the ledger in dir through
// fn, read-only: no repair, no new segment, no handle kept. It is the
// audit path — it works on a live ledger's directory as well as a
// closed one, though there a record caught mid-write reads as damage.
// Damage, a missing segment included, is reported as ErrCorrupt,
// never skipped, so an audit cannot mistake a shortened log for the
// whole one. It reads one record at a time: memory does not grow with
// the segment size.
func Replay(fsys FS, dir string, fn func(*Record) error) error {
	if fsys == nil {
		fsys = DirFS{}
	}
	gen, err := readCurrent(fsys, dir)
	if err != nil {
		return err
	}
	if gen == 0 {
		// No CURRENT: tell a missing directory apart from an existing
		// but empty one — the former is an operator pointing the audit
		// at the wrong path and deserves a precise error.
		if _, derr := fsys.ReadDir(dir); derr != nil {
			if errors.Is(derr, fs.ErrNotExist) {
				return fmt.Errorf("%w: %s", ErrDirNotExist, dir)
			}
			return fmt.Errorf("ledger: list %s: %w", dir, derr)
		}
		return fmt.Errorf("%w at %s", ErrNoLedger, dir)
	}
	segs, gap, err := listSegments(fsys, dir, gen)
	if err != nil {
		return err
	}
	sc := newScanner()
	for _, seg := range segs {
		end, err := sc.scanFile(fsys, dir, seg, fn)
		if err != nil {
			return err
		}
		if end.tear != nil {
			return corruptAt(seg, end)
		}
	}
	return gap
}

// corruptAt is the ErrCorrupt for the damage a scan of seg stopped at.
func corruptAt(seg segRef, end segEnd) error {
	return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, seg.name, end.verified, end.tear)
}

// cloneRecord deep-copies rec so pooled decode buffers can be reused.
func cloneRecord(rec *Record) Record {
	out := *rec
	if rec.Proof != nil {
		out.Proof = append([]byte(nil), rec.Proof...)
	}
	return out
}
