package protocol

import (
	"bytes"
	"testing"
)

// TestFrameReaderReuse: the returned slice aliases the internal buffer,
// so the next call overwrites it — the documented contract callers copy
// around.
func TestFrameReaderReuse(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrame(&b, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&b, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&b)
	first, err := fr.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "aaaa" {
		t.Fatalf("first frame %q", first)
	}
	if _, err := fr.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if string(first) == "aaaa" {
		t.Fatal("second ReadFrame left the first slice untouched; buffer is not being reused")
	}
}

// TestFrameReaderZeroAlloc guards the pooled read path: after the
// buffer has grown once, reading frames allocates nothing. Runs in the
// non-race allocs verify stage (AllocsPerRun is perturbed under -race).
func TestFrameReaderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is perturbed by the race detector")
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, bytes.Repeat([]byte{3}, 1024)); err != nil {
		t.Fatal(err)
	}
	stream := wire.Bytes()
	r := bytes.NewReader(stream)
	fr := NewFrameReader(r)
	if _, err := fr.ReadFrame(); err != nil { // grow once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(stream)
		if _, err := fr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameReader.ReadFrame allocates %v per frame; want 0", allocs)
	}
}
