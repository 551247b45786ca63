package session

import (
	"crypto/rsa"
	"crypto/x509"
	"fmt"
	"sync"
)

// parsePeerKey parses a peer's PKIX DER key frame. Nothing is trusted
// beyond "this DER parses as RSA": the negotiation itself
// authenticates every message against the key.
func parsePeerKey(der []byte) (*rsa.PublicKey, error) {
	parsed, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("session: parse peer key: %w", err)
	}
	key, ok := parsed.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("session: peer key is %T, want RSA", parsed)
	}
	return key, nil
}

// bufPool recycles outbound frame buffers: the reader fills one per
// frame it owes the peer and the conn's writer returns it once the
// frame is written. Pooled as *[]byte to keep the slice header off the
// heap.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// recycle returns a pooled buffer.
func recycle(bp *[]byte) {
	if bp != nil {
		bufPool.Put(bp)
	}
}
