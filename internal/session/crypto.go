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

// bufPool recycles payload buffers: the conn reader's FrameReader
// buffer is only valid until its next read, so each queued payload is
// copied into a pooled buffer and returned after the worker consumes
// it. Pooled as *[]byte to keep the slice header off the heap.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// copyToPooled copies p into a pooled buffer.
func copyToPooled(p []byte) *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = append((*bp)[:0], p...)
	return bp
}

// recycle returns a pooled buffer.
func recycle(bp *[]byte) {
	if bp != nil {
		bufPool.Put(bp)
	}
}
