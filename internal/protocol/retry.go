package protocol

import (
	"errors"
	"fmt"
	"time"
)

// ErrRetryBudget is returned when a retry loop gives up with its
// attempts exhausted.
var ErrRetryBudget = errors.New("protocol: retry budget exhausted")

// Transient reports whether an error is worth retrying. Protocol
// verdicts — a peer that failed validation, a malformed message, a
// stale proof, exhausted rounds — are permanent: retrying replays the
// same doomed exchange. Everything else (truncated or corrupt frames,
// connection resets, timeouts) is transport weather and may clear.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, ErrBadPeer),
		errors.Is(err, ErrBadMessage),
		errors.Is(err, ErrNoConvergence),
		errors.Is(err, ErrStaleProof):
		return false
	}
	return true
}

// Retrier bounds re-attempts with exponential backoff: the first
// backoff is retryBaseDelay, doubling per attempt up to retryMaxDelay.
// The sleep is injectable so internal/ users stay tlcvet-clean and
// deterministic: tests pass recorders, cmd/tlcd passes time.Sleep. Nil
// Sleep means no waiting (attempts run back to back).
type Retrier struct {
	// MaxAttempts caps total tries (default 3).
	MaxAttempts int
	// Sleep waits out a backoff; nil skips the wait.
	Sleep func(time.Duration)
}

const (
	retryBaseDelay = 50 * time.Millisecond
	retryMaxDelay  = 2 * time.Second
)

func (r *Retrier) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 3
}

// backoff returns the wait before attempt+1's retry.
func backoff(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	return min(d, retryMaxDelay)
}

// Do runs op until it succeeds, fails permanently, or the attempts run
// out. op receives the attempt index (0-based). The backoff precedes
// every attempt but the first.
func (r *Retrier) Do(op func(attempt int) error) error {
	var last error
	for attempt := 0; attempt < r.maxAttempts(); attempt++ {
		if attempt > 0 {
			Metrics.Retries.Inc()
			if r.Sleep != nil {
				r.Sleep(backoff(attempt - 1))
			}
		}
		err := op(attempt)
		if err == nil {
			return nil
		}
		last = err
		if !Transient(err) {
			return err
		}
	}
	return fmt.Errorf("%w: %d attempts: %v", ErrRetryBudget, r.maxAttempts(), last)
}
