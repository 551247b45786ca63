package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzReadFrame throws arbitrary streams at the framing layer. The
// oracle: ReadFrame either returns a typed error (truncation, checksum
// mismatch, oversize) or a frame that round-trips byte-identically
// through WriteFrame. It must never panic, never allocate past
// MaxFrame, never mistake a mid-frame death for a clean EOF, never wait
// for the body of a length that fails its check, and never return a
// body whose checksum does not match: a parsed frame with one length
// bit or one body byte flipped must read as ErrFrameCorrupt.
func FuzzReadFrame(f *testing.F) {
	// Structural edge cases (mirrored in testdata/fuzz seeds). The
	// header is [length word u32][crc32c u32]; a header for a length
	// and a CRC is built by hdr, and a whole frame by frame.
	hdr := func(n, crc uint32) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, lenCheck(n)<<lenBits|n), crc)
	}
	frame := func(body ...byte) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, body); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add([]byte{})                                   // clean EOF
	f.Add([]byte{0, 0})                               // partial header
	f.Add(frame())                                    // empty frame: all eight bytes zero
	f.Add(frame(1, 2, 3))                             // exact small frame
	f.Add(append(hdr(10, 0), 1, 2))                   // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // a length word failing its check
	f.Add(hdr(MaxFrame+1, 0))                         // >MaxFrame by a little
	f.Add(append(frame(1, 2, 3, 4, 5), 9))            // trailing garbage
	f.Add(append(frame(1, 2, 3)[:10], 7))             // checksum mismatch
	damaged := frame(1, 2, 3)
	damaged[3] ^= 0x02 // a length bit flipped: announces 1
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ReadFrame(bytes.NewReader(data))
		// n is the announced body length, checked whether its word
		// passes its check, complete whether the stream holds all of
		// a checked, in-bounds body.
		var n uint32
		checked, complete := false, false
		if len(data) >= FrameHeaderSize {
			word := binary.BigEndian.Uint32(data[:4])
			n = word & (1<<lenBits - 1)
			checked = word>>lenBits == lenCheck(n)
			complete = checked && n <= MaxFrame && len(data)-FrameHeaderSize >= int(n)
		}
		switch {
		case err == nil:
			// Parsed: the header must have announced exactly this
			// length within bounds, and the frame must round-trip.
			if len(frame) > MaxFrame {
				t.Fatalf("frame of %d exceeds MaxFrame", len(frame))
			}
			if !checked || int(n) != len(frame) {
				t.Fatalf("announced %d (checked %v), returned %d", n, checked, len(frame))
			}
			var buf bytes.Buffer
			if werr := WriteFrame(&buf, frame); werr != nil {
				t.Fatalf("round-trip write: %v", werr)
			}
			wire := data[:FrameHeaderSize+len(frame)]
			if !bytes.Equal(buf.Bytes(), wire) {
				t.Fatal("round trip changed bytes")
			}
			// One length bit flipped fails at the header: only the
			// header is there to read.
			hdr := bytes.Clone(wire[:FrameHeaderSize])
			hdr[3-len(frame)%4] ^= 1 << (len(frame) % 8)
			if got, derr := ReadFrame(bytes.NewReader(hdr)); !errors.Is(derr, ErrFrameCorrupt) || got != nil {
				t.Fatalf("flipped length bit: frame %q, err %v; want ErrFrameCorrupt and no frame", got, derr)
			}
			if len(frame) > 0 {
				damaged := bytes.Clone(wire)
				damaged[FrameHeaderSize+len(frame)/2] ^= 0x01
				if got, derr := ReadFrame(bytes.NewReader(damaged)); !errors.Is(derr, ErrFrameCorrupt) || got != nil {
					t.Fatalf("flipped body byte: frame %q, err %v; want ErrFrameCorrupt and no frame", got, derr)
				}
			}
		case errors.Is(err, ErrFrameCorrupt):
			// Only a length word failing its check, or a whole,
			// in-bounds frame whose body does not match its checksum.
			if len(data) < FrameHeaderSize {
				t.Fatalf("checksum mismatch reported on a partial header: %v", err)
			}
			if !checked {
				return
			}
			if !complete {
				t.Fatalf("checksum mismatch reported on an incomplete frame: %v", err)
			}
			body := data[FrameHeaderSize : FrameHeaderSize+n]
			if crc32.Checksum(body, castagnoli) == binary.BigEndian.Uint32(data[4:8]) {
				t.Fatalf("checksum mismatch reported on a matching body: %v", err)
			}
		case errors.Is(err, ErrFrameTruncated):
			// Typed truncation requires the stream to actually be
			// short: either a partial header or a checked, in-bounds
			// body shorter than announced.
			if len(data) >= FrameHeaderSize && (!checked || n > MaxFrame || complete) {
				t.Fatalf("truncation reported on a stream with a whole frame or a refused header: %v", err)
			}
		case errors.Is(err, io.EOF):
			if len(data) != 0 {
				t.Fatalf("clean EOF on %d bytes", len(data))
			}
		default:
			// Oversize: must only happen when a checked header
			// announced past MaxFrame.
			if !checked || n <= MaxFrame {
				t.Fatalf("unexpected error on an in-bounds or unchecked header: %v", err)
			}
		}
	})
}
