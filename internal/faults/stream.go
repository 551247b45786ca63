package faults

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tlc/internal/sim"
)

// ErrTruncatedWrite is returned by Conn.Write when the truncate fault
// fires: only part of the buffer went out and the transport was
// closed underneath the peer.
var ErrTruncatedWrite = errors.New("faults: write truncated by injected fault")

// Conn wraps the negotiation stream with seeded corruption, write
// truncation and write stalls — the stream-path half of the network
// fault family. It corrupts what the *local* side reads, which models
// on-the-wire damage without needing to own both endpoints.
//
// Stall is injectable so internal/ code stays tlcvet-clean: tests
// pass a recorder; cmd/tlcd passes time.Sleep. A nil Stall records
// the stall in the trace and moves on.
type Conn struct {
	Inner io.ReadWriter
	Spec  Spec
	RNG   *sim.RNG
	Trace *Trace
	Stall func(time.Duration)

	// mu serialises the fault draws, the counters and the trace, not
	// the inner I/O: the session engine reads a conn on one goroutine
	// while writing it on another.
	mu sync.Mutex
	// Counters for assertions and metrics.
	Corrupted uint64
	Truncated uint64
	Stalls    uint64
}

// Read reads from the wrapped stream, flipping one byte with
// probability CorruptP per successful read.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Inner.Read(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > 0 && c.RNG.Bernoulli(c.Spec.CorruptP) {
		i := 0
		if n > 1 {
			i = c.RNG.Intn(n)
		}
		p[i] ^= 0xff
		c.Corrupted++
		//tlcvet:allow metricstier — Conn wraps live net.Conn streams outside any sim run; there is no run boundary to flush at
		mCorrupt.Inc()
		c.Trace.Addf(0, "stream corrupt byte %d of %d", i, n)
	}
	return n, err
}

// Write writes to the wrapped stream. A stall fault delays the write;
// a truncate fault writes only the first half, closes the transport
// if it can, and returns ErrTruncatedWrite.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	var stall time.Duration
	if c.RNG.Bernoulli(c.Spec.StallP) {
		c.Stalls++
		//tlcvet:allow metricstier — live stream path (see Read); counts must be visible while the connection is still open
		mStall.Inc()
		stall = c.Spec.StallFor
		if stall <= 0 {
			stall = DefaultStallFor
		}
		c.Trace.Addf(0, "stream stall %s", stall)
	}
	half := len(p) / 2
	truncate := len(p) > 1 && c.RNG.Bernoulli(c.Spec.TruncateP)
	if truncate {
		c.Truncated++
		//tlcvet:allow metricstier — live stream path (see Read); counts must be visible while the connection is still open
		mTruncate.Inc()
		c.Trace.Addf(0, "stream truncate %d of %d bytes", half, len(p))
	}
	c.mu.Unlock()
	if stall > 0 && c.Stall != nil {
		c.Stall(stall)
	}
	if !truncate {
		return c.Inner.Write(p)
	}
	n, err := c.Inner.Write(p[:half])
	if closer, ok := c.Inner.(io.Closer); ok {
		_ = closer.Close() // the fault's point is a dead transport
	}
	if err != nil {
		return n, err
	}
	return n, fmt.Errorf("%w: wrote %d of %d", ErrTruncatedWrite, n, len(p))
}

// Close closes the wrapped stream when it supports closing.
func (c *Conn) Close() error {
	if closer, ok := c.Inner.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}
