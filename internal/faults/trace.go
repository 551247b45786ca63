package faults

import (
	"fmt"

	"tlc/internal/sim"
)

// Trace is an append-only log of injected faults. Two runs of the
// same (seed, Spec) pair must produce identical traces — Summary()
// folds every line into an FNV-1a hash, so the determinism pin is
// exact at constant memory however long the run. A nil *Trace is
// valid and records nothing.
type Trace struct {
	n    uint64
	hash uint64
}

// Addf records one fault event stamped with the simulated time.
func (t *Trace) Addf(now sim.Time, format string, args ...any) {
	if t == nil {
		return
	}
	line := now.String() + " " + fmt.Sprintf(format, args...)
	if t.hash == 0 {
		t.hash = 14695981039346656037 // FNV-1a offset basis
	}
	for i := 0; i < len(line); i++ {
		t.hash ^= uint64(line[i])
		t.hash *= 1099511628211
	}
	t.hash ^= '\n'
	t.hash *= 1099511628211
	t.n++
}

// Len returns how many events were recorded.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Hash returns the rolling FNV-1a hash over every recorded line.
func (t *Trace) Hash() uint64 {
	if t == nil {
		return 0
	}
	return t.hash
}

// Summary is the one-line determinism pin: equal traces — of any
// length — summarise identically, unequal ones differ.
func (t *Trace) Summary() string {
	return fmt.Sprintf("entries=%d hash=%016x", t.Len(), t.Hash())
}
