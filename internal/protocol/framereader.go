package protocol

import (
	"encoding/binary"
	"fmt"
	"io"
)

// FrameReader reads length-prefixed frames, reusing one internal body
// buffer across calls, so a steady stream of frames costs zero
// allocations after the buffer has grown to the largest frame seen.
// It is the one frame decoder: the session engine and its mux client,
// Party.Run and ReadFrame (one read through a fresh reader) all use it.
//
// The returned slice aliases the internal buffer and is only valid
// until the next ReadFrame call; callers that queue frames must copy.
type FrameReader struct {
	r   io.Reader
	hdr [4]byte // reused header scratch; a local would escape through io.ReadFull
	buf []byte
}

// NewFrameReader wraps r. The reader owns no goroutines and holds no
// state besides the reusable buffer, so it is safe to abandon.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// ReadFrame reads one length-prefixed message. It returns a clean
// io.EOF only on a frame boundary and a hard error on a header
// announcing more than MaxFrame bytes. A stream that ends mid-header
// or mid-body is a truncation, not a clean EOF: it returns
// ErrFrameTruncated so callers can fail closed (close the connection)
// instead of leaving the peer mid-exchange on a half-consumed stream.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if n, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if n > 0 {
			return nil, fmt.Errorf("%w: %d of 4 header bytes: %v", ErrFrameTruncated, n, err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
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
	return data, nil
}
