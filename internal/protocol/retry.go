package protocol

import (
	"errors"
	"fmt"
	"time"
)

// ErrRetryBudget is returned when a retry loop gives up: attempts
// exhausted or the deadline would be overrun by the next backoff.
var ErrRetryBudget = errors.New("protocol: retry budget exhausted")

// Transient reports whether an error is worth retrying. Protocol
// verdicts — a peer that failed validation, a malformed message, a
// stale proof, exhausted rounds — are permanent: retrying replays the
// same doomed exchange. Everything else (truncated frames, connection
// resets, timeouts) is transport weather and may clear.
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

// Retrier bounds re-attempts with exponential backoff and an overall
// deadline. The clock is injectable so internal/ users stay
// tlcvet-clean and deterministic: tests pass recorders, cmd/tlcd
// passes time.Sleep and a time.Since closure. Nil Sleep means no
// waiting (attempts run back to back); nil Elapsed disables the
// deadline and only MaxAttempts bounds the loop.
type Retrier struct {
	// MaxAttempts caps total tries (default 3).
	MaxAttempts int
	// BaseDelay is the first backoff, doubling per attempt (default
	// 50ms), capped at MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Deadline bounds the whole loop: once Elapsed() reaches it no
	// further attempt starts, and backoffs are capped at the budget
	// remaining so a sleep never overshoots it. Zero means no deadline.
	Deadline time.Duration
	// Sleep waits out a backoff; nil skips the wait.
	Sleep func(time.Duration)
	// Elapsed reports time spent since the operation started; nil
	// disables the deadline check.
	Elapsed func() time.Duration
}

func (r *Retrier) maxAttempts() int {
	if r.MaxAttempts > 0 {
		return r.MaxAttempts
	}
	return 3
}

func (r *Retrier) backoff(attempt int) time.Duration {
	d := r.BaseDelay
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	max := r.MaxDelay
	if max <= 0 {
		max = 2 * time.Second
	}
	for i := 0; i < attempt; i++ {
		// Clamp before doubling: past max/2 the next doubling either
		// reaches max or overflows time.Duration (attempt ≥ ~40 with a
		// large MaxDelay flips d negative and the sleep never happens).
		if d >= max || d > max/2 {
			return max
		}
		d *= 2
	}
	if d > max {
		return max
	}
	return d
}

// Do runs op until it succeeds, fails permanently, or the budget runs
// out. op receives the attempt index (0-based). The backoff precedes
// every attempt but the first.
func (r *Retrier) Do(op func(attempt int) error) error {
	var last error
	for attempt := 0; attempt < r.maxAttempts(); attempt++ {
		if attempt > 0 {
			d := r.backoff(attempt - 1)
			if r.Deadline > 0 && r.Elapsed != nil {
				// Cap the sleep at the remaining budget instead of
				// refusing the attempt: a retry that still fits the
				// deadline should run, just without oversleeping it.
				// (Subtracting also avoids the Elapsed()+d overflow.)
				remaining := r.Deadline - r.Elapsed()
				if remaining <= 0 {
					return fmt.Errorf("%w: deadline before attempt %d: %v", ErrRetryBudget, attempt+1, last)
				}
				if d > remaining {
					d = remaining
				}
			}
			Metrics.Retries.Inc()
			if r.Sleep != nil {
				r.Sleep(d)
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
