package session

import (
	"bytes"
	"errors"
	"testing"
)

func TestMuxRoundTrip(t *testing.T) {
	payload := []byte{3, 1, 4, 1, 5, 9}
	frame := AppendMux(nil, TypeData, 0xdeadbeefcafe, payload)
	typ, sid, got, err := DecodeMux(frame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeData || sid != 0xdeadbeefcafe || !bytes.Equal(got, payload) {
		t.Fatalf("decode = (%d, %x, %v)", typ, sid, got)
	}
	// Empty payloads are legal (TypeReject carries its code in the
	// payload, but a bare abort is still a frame).
	typ, sid, got, err = DecodeMux(AppendMux(nil, TypeDone, 7, nil))
	if err != nil || typ != TypeDone || sid != 7 || len(got) != 0 {
		t.Fatalf("empty payload decode = (%d, %d, %v, %v)", typ, sid, got, err)
	}
}

func TestDecodeMuxRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{TypeData},                         // header cut short
		{TypeData, 0, 0, 0, 0, 0, 0, 0},    // one byte short
		{99, 0, 0, 0, 0, 0, 0, 0, 0, 0xff}, // unknown type
		{0, 0, 0, 0, 0, 0, 0, 0, 0},        // type zero is reserved
	}
	for i, c := range cases {
		if _, _, _, err := DecodeMux(c); !errors.Is(err, ErrMuxFrame) {
			t.Fatalf("case %d (%v): err = %v, want ErrMuxFrame", i, c, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	der := []byte("fake-der-bytes")
	got, ok := IsHello(Hello(der))
	if !ok || !bytes.Equal(got, der) {
		t.Fatalf("IsHello(Hello(der)) = (%q, %v)", got, ok)
	}
	// A bare DER key (an ASN.1 SEQUENCE tag, not the magic) is not a
	// hello.
	if _, ok := IsHello([]byte{0x30, 0x81, 0x9f, 0x30}); ok {
		t.Fatal("ASN.1 DER misread as mux hello")
	}
	if _, ok := IsHello(nil); ok {
		t.Fatal("empty frame misread as mux hello")
	}
	// Magic alone means an empty DER — structurally a hello; the key
	// parse rejects it later.
	if der, ok := IsHello(Hello(nil)); !ok || len(der) != 0 {
		t.Fatal("bare magic not recognised")
	}
}

// FuzzDecodeMux asserts the decoder never panics and that every
// accepted frame round-trips through AppendMux byte-identically.
func FuzzDecodeMux(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{TypeData, 0, 0, 0, 0, 0, 0, 0, 1, 3, 9, 9})
	f.Add([]byte{TypeReject, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, RejectOverload})
	f.Add([]byte{TypeDone, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 3, 0xb6})
	f.Add(AppendMux(nil, TypeData, 1<<63, bytes.Repeat([]byte{0xaa}, 300)))
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil {
			return
		}
		if got := AppendMux(nil, typ, sid, payload); !bytes.Equal(got, frame) {
			t.Fatalf("round trip: %v != %v", got, frame)
		}
	})
}
