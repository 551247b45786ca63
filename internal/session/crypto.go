package session

import (
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"sync"
	"sync/atomic"
)

// KeyCache maps PKIX DER fingerprints to parsed RSA public keys, so a
// fleet of edge clients reconnecting with the same identity pays for
// x509 parsing once, not once per connection. Keys are cached by the
// SHA-256 of the DER bytes: two byte-identical encodings are the same
// key, and nothing is trusted beyond "this DER parses as RSA" — the
// negotiation itself authenticates every message against the key.
type KeyCache struct {
	mu     sync.RWMutex
	m      map[[sha256.Size]byte]*rsa.PublicKey
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewKeyCache returns an empty cache.
func NewKeyCache() *KeyCache {
	return &KeyCache{m: make(map[[sha256.Size]byte]*rsa.PublicKey)}
}

// Parse returns the RSA public key for der, consulting the cache
// first; hit reports whether parsing was skipped.
func (kc *KeyCache) Parse(der []byte) (key *rsa.PublicKey, hit bool, err error) {
	fp := sha256.Sum256(der)
	kc.mu.RLock()
	key = kc.m[fp]
	kc.mu.RUnlock()
	if key != nil {
		kc.hits.Add(1)
		return key, true, nil
	}
	kc.misses.Add(1)
	parsed, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, false, fmt.Errorf("session: parse peer key: %w", err)
	}
	key, ok := parsed.(*rsa.PublicKey)
	if !ok {
		return nil, false, fmt.Errorf("session: peer key is %T, want RSA", parsed)
	}
	kc.mu.Lock()
	kc.m[fp] = key
	kc.mu.Unlock()
	return key, false, nil
}

// Stats returns cumulative hit/miss counts.
func (kc *KeyCache) Stats() (hits, misses uint64) {
	return kc.hits.Load(), kc.misses.Load()
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
