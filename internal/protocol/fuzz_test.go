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
// MaxFrame, never mistake a mid-frame death for a clean EOF, and never
// return a body whose checksum does not match: a parsed frame with one
// body byte flipped must read as ErrFrameCorrupt.
func FuzzReadFrame(f *testing.F) {
	// Structural edge cases (mirrored in testdata/fuzz seeds). The
	// header is [len u32][crc32c u32]; 0xf130f21e is the CRC-32C of
	// {1, 2, 3} and 0x53518fab that of {1, 2, 3, 4, 5}.
	f.Add([]byte{})                                                     // clean EOF
	f.Add([]byte{0, 0})                                                 // partial header
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})                               // empty frame
	f.Add([]byte{0, 0, 0, 3, 0xf1, 0x30, 0xf2, 0x1e, 1, 2, 3})          // exact small frame
	f.Add([]byte{0, 0, 0, 10, 0, 0, 0, 0, 1, 2})                        // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                   // oversize header
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0, 0})                               // >MaxFrame by a little
	f.Add([]byte{0, 0, 0, 5, 0x53, 0x51, 0x8f, 0xab, 1, 2, 3, 4, 5, 9}) // trailing garbage
	f.Add([]byte{0, 0, 0, 3, 0xf1, 0x30, 0xf2, 0x1e, 1, 2, 7})          // checksum mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := ReadFrame(bytes.NewReader(data))
		// n is the announced body length, complete whether the stream
		// holds all of it.
		var n uint32
		complete := false
		if len(data) >= FrameHeaderSize {
			n = binary.BigEndian.Uint32(data[:4])
			complete = n <= MaxFrame && len(data)-FrameHeaderSize >= int(n)
		}
		switch {
		case err == nil:
			// Parsed: the header must have announced exactly this
			// length within bounds, and the frame must round-trip.
			if len(frame) > MaxFrame {
				t.Fatalf("frame of %d exceeds MaxFrame", len(frame))
			}
			if int(n) != len(frame) {
				t.Fatalf("announced %d, returned %d", n, len(frame))
			}
			var buf bytes.Buffer
			if werr := WriteFrame(&buf, frame); werr != nil {
				t.Fatalf("round-trip write: %v", werr)
			}
			wire := data[:FrameHeaderSize+len(frame)]
			if !bytes.Equal(buf.Bytes(), wire) {
				t.Fatal("round trip changed bytes")
			}
			if len(frame) > 0 {
				damaged := bytes.Clone(wire)
				damaged[FrameHeaderSize+len(frame)/2] ^= 0x01
				if got, derr := ReadFrame(bytes.NewReader(damaged)); !errors.Is(derr, ErrFrameCorrupt) || got != nil {
					t.Fatalf("flipped body byte: frame %q, err %v; want ErrFrameCorrupt and no frame", got, derr)
				}
			}
		case errors.Is(err, ErrFrameCorrupt):
			// Only a whole, in-bounds frame whose body does not match
			// its checksum.
			if !complete {
				t.Fatalf("checksum mismatch reported on an incomplete frame: %v", err)
			}
			body := data[FrameHeaderSize : FrameHeaderSize+n]
			if crc32.Checksum(body, castagnoli) == binary.BigEndian.Uint32(data[4:8]) {
				t.Fatalf("checksum mismatch reported on a matching body: %v", err)
			}
		case errors.Is(err, ErrFrameTruncated):
			// Typed truncation requires the stream to actually be
			// short: either a partial header or a body shorter than
			// announced.
			if complete {
				t.Fatalf("truncation reported on a complete frame: %v", err)
			}
		case errors.Is(err, io.EOF):
			if len(data) != 0 {
				t.Fatalf("clean EOF on %d bytes", len(data))
			}
		default:
			// Oversize: must only happen when the header announced
			// past MaxFrame.
			if len(data) < FrameHeaderSize || n <= MaxFrame {
				t.Fatalf("unexpected error on an in-bounds header: %v", err)
			}
		}
	})
}
