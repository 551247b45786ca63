package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameReader reads frames, reusing one internal body buffer across
// calls, so a steady stream of frames costs zero allocations after the
// buffer has grown to the largest frame seen. It is the one frame
// decoder: the session engine and its mux client, and ReadFrame (one
// read through a fresh reader), all use it.
//
// The returned slice aliases the internal buffer and is only valid
// until the next ReadFrame call; callers that queue frames must copy.
type FrameReader struct {
	r   io.Reader
	hdr [FrameHeaderSize]byte // reused header scratch; a local would escape through io.ReadFull
	buf []byte
}

// NewFrameReader wraps r. The reader owns no goroutines and holds no
// state besides the reusable buffer, so it is safe to abandon.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one frame and returns its body. It returns a clean
// io.EOF only on a frame boundary and a hard error on a header
// announcing more than MaxFrame bytes. A stream that ends mid-header
// or mid-body is a truncation, not a clean EOF: it returns
// ErrFrameTruncated so callers can fail closed (close the connection)
// instead of leaving the peer mid-exchange on a half-consumed stream.
// A length word that fails its check returns ErrFrameCorrupt before
// any body byte is read, and so does a body that fails its checksum,
// never the body: damaged bytes must not reach a signature check,
// where they would read as a forgery.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if n, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if n > 0 {
			return nil, fmt.Errorf("%w: %d of %d header bytes: %v", ErrFrameTruncated, n, FrameHeaderSize, err)
		}
		return nil, err
	}
	word := binary.BigEndian.Uint32(fr.hdr[:4])
	n := word & (1<<lenBits - 1)
	if word>>lenBits != lenCheck(n) {
		return nil, fmt.Errorf("%w: the header's length word %#08x fails its check", ErrFrameCorrupt, word)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("protocol: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	data := fr.buf[:n]
	if m, err := io.ReadFull(fr.r, data); err != nil {
		return nil, fmt.Errorf("%w: %d of %d body bytes: %v", ErrFrameTruncated, m, n, err)
	}
	if crc32.Checksum(data, castagnoli) != binary.BigEndian.Uint32(fr.hdr[4:]) {
		return nil, fmt.Errorf("%w: %d-byte body", ErrFrameCorrupt, n)
	}
	return data, nil
}
