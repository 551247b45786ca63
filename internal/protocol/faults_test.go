package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/metrics"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// --- ErrFrameTruncated regression (the latent short-read bug) ---

func TestReadFrameTruncatedHeader(t *testing.T) {
	// A stream that dies inside the 4-byte header must surface the
	// typed truncation error, not a bare unexpected-EOF.
	_, err := ReadFrame(bytes.NewReader([]byte{0, 0}))
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("partial header: %v, want ErrFrameTruncated", err)
	}
	// A stream that ends cleanly before any header is a normal EOF.
	_, err = ReadFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) || errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("clean EOF: %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2, 3}))
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("partial body: %v, want ErrFrameTruncated", err)
	}
}

// closableHalf wraps one end of a pipe recording whether Run closed it.
type closableHalf struct {
	net.Conn
	closed bool
}

func (c *closableHalf) Close() error { c.closed = true; return c.Conn.Close() }

// protocolCounters snapshots every protocol_*_total counter.
func protocolCounters() map[string]float64 {
	out := map[string]float64{}
	for name, v := range metrics.Default.Snapshot() {
		if strings.HasPrefix(name, "protocol_") && strings.HasSuffix(name, "_total") {
			out[name] = v
		}
	}
	return out
}

// checkCounterDeltas compares every protocol_*_total counter's change
// since before against want; counters absent from want must not move.
func checkCounterDeltas(t *testing.T, before map[string]float64, want map[string]float64) {
	t.Helper()
	after := protocolCounters()
	for name := range want {
		if _, ok := after[name]; !ok {
			t.Errorf("no counter %s", name)
		}
	}
	for name, v := range after {
		if got := v - before[name]; got != want[name] {
			t.Errorf("%s moved by %v, want %v", name, got, want[name])
		}
	}
}

// runAgainst runs edge as the initiator over a pipe whose far end is
// played by peer, and reports whether Run closed its end.
func runAgainst(edge *Party, peer func(net.Conn)) (closed bool, err error) {
	ci, cr := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		peer(cr)
	}()
	wrapped := &closableHalf{Conn: ci}
	_, err = edge.Run(wrapped, true)
	closed = wrapped.closed
	_ = ci.Close() // unblocks a peer still waiting on us
	<-done
	return closed, err
}

// TestRunOutcomeAccounting pins how Run and RunPair account each
// outcome: the protocol_*_total counters it moves, the typed error it
// returns, and whether a desynchronised or replayed stream gets its
// transport closed. A failed RunPair classifies only the side that
// failed; its peer counts as failed, unclassified.
func TestRunOutcomeAccounting(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	e0, o0 := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 29)
	ro, _, err := RunPair(o0, e0)
	if err != nil {
		t.Fatal(err)
	}
	stale := ro.PoC

	byzantine := func(mode string) func(net.Conn) {
		return func(c net.Conn) {
			b := &Byzantine{
				Mode: mode, Role: poc.RoleOperator, Plan: plan,
				Keys: opKeys, PeerKey: edgeKeys.Public, RNG: sim.NewRNG(34), Stale: stale,
			}
			_, _ = b.Run(c) // the honest side's verdict is what the row checks
		}
	}
	const (
		started   = "protocol_negotiations_started_total"
		settled   = "protocol_negotiations_settled_total"
		failed    = "protocol_negotiations_failed_total"
		rounds    = "protocol_rounds_total"
		staleRej  = "protocol_stale_proof_rejections_total"
		byzRej    = "protocol_byzantine_rejections_total"
		truncated = "protocol_frame_truncations_total"
	)
	cases := []struct {
		name   string
		run    func() (closed bool, err error)
		want   error
		deltas map[string]float64
		closed bool
	}{
		{
			name: "settled",
			run: func() (bool, error) {
				edge, op := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 30)
				_, _, err := RunPair(op, edge)
				return false, err
			},
			deltas: map[string]float64{started: 2, settled: 2, rounds: 2},
		},
		{
			name: "stale_proof",
			run: func() (bool, error) {
				edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 31)
				return runAgainst(edge, byzantine(ByzReplay))
			},
			want:   ErrStaleProof,
			deltas: map[string]float64{started: 1, failed: 1, staleRej: 1},
			closed: true,
		},
		{
			name: "bad_peer",
			run: func() (bool, error) {
				edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 32)
				return runAgainst(edge, byzantine(ByzTamper))
			},
			want:   ErrBadPeer,
			deltas: map[string]float64{started: 1, failed: 1, byzRej: 1},
		},
		{
			name: "truncated",
			run: func() (bool, error) {
				edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 33)
				return runAgainst(edge, func(c net.Conn) {
					if _, err := ReadFrame(c); err != nil {
						return
					}
					// Announce 100 body bytes, then die after 3.
					_, _ = c.Write([]byte{0, 0, 0, 100, 9, 9, 9})
					_ = c.Close()
				})
			},
			want:   ErrFrameTruncated,
			deltas: map[string]float64{started: 1, failed: 1, truncated: 1},
			closed: true,
		},
		{
			name: "no_convergence",
			run: func() (bool, error) {
				edge, op := parties(core.OptimalStrategy{}, rejectAll{}, view, view, 34)
				op.MaxRounds, edge.MaxRounds = 8, 256
				_, _, err := RunPair(op, edge)
				return false, err
			},
			want:   ErrNoConvergence,
			deltas: map[string]float64{started: 2, failed: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := protocolCounters()
			closed, err := tc.run()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if closed != tc.closed {
				t.Errorf("conn closed = %v, want %v", closed, tc.closed)
			}
			checkCounterDeltas(t, before, tc.deltas)
		})
	}
}

// --- stale-proof binding ---

// TestStaleProofRejected: a correctly signed PoC from an earlier
// negotiation passes stateless verification but must be rejected by
// the protocol's CDA binding with ErrStaleProof.
func TestStaleProofRejected(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	e1, o1 := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 31)
	ro, _, err := RunPair(o1, e1)
	if err != nil {
		t.Fatal(err)
	}
	stale := ro.PoC
	if err := poc.VerifyStateless(stale, plan, edgeKeys.Public, opKeys.Public); err != nil {
		t.Fatalf("stale proof should be genuine: %v", err)
	}

	edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 32)
	byz := &Byzantine{
		Mode: ByzReplay, Role: poc.RoleOperator, Plan: plan,
		Keys: opKeys, PeerKey: edgeKeys.Public, RNG: sim.NewRNG(33), Stale: stale,
	}
	ci, cr := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := byz.Run(cr)
		done <- err
	}()
	_, err = edge.Run(ci, true)
	if !errors.Is(err, ErrStaleProof) {
		t.Fatalf("err = %v, want ErrStaleProof", err)
	}
	_ = ci.Close()
	if berr := <-done; berr != nil {
		t.Fatalf("byzantine side: %v", berr)
	}

	// The stateful verifier also refuses the second sighting.
	v := poc.NewVerifier(edgeKeys.Public, opKeys.Public)
	if err := v.Verify(stale, plan); err != nil {
		t.Fatalf("first sighting: %v", err)
	}
	if err := v.Verify(stale, plan); !errors.Is(err, poc.ErrReplay) {
		t.Fatalf("second sighting: %v, want ErrReplay", err)
	}
}

// --- byzantine battery: forged frames never verify ---

func TestByzantineForgeriesNeverVerify(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	for i, mode := range []string{ByzInflate, ByzTamper} {
		edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, int64(40+i))
		byz := &Byzantine{
			Mode: mode, Role: poc.RoleOperator, Plan: plan,
			Keys: opKeys, PeerKey: edgeKeys.Public, RNG: sim.NewRNG(int64(50 + i)),
		}
		ci, cr := net.Pipe()
		type out struct {
			sent [][]byte
			err  error
		}
		done := make(chan out, 1)
		go func() {
			sent, err := byz.Run(cr)
			done <- out{sent, err}
		}()
		_, err := edge.Run(ci, true)
		if err == nil {
			t.Fatalf("%s: honest side accepted a forgery", mode)
		}
		if !errors.Is(err, ErrBadPeer) && !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: err = %v, want a typed protocol rejection", mode, err)
		}
		_ = ci.Close()
		o := <-done
		if o.err != nil {
			t.Fatalf("%s: byzantine side: %v", mode, o.err)
		}
		// No frame the adversary emitted may ever verify as a PoC.
		for _, data := range o.sent {
			if len(data) == 0 || data[0] != 3 {
				continue
			}
			var p poc.PoC
			if uerr := p.UnmarshalBinary(data); uerr != nil {
				continue // does not even parse: fine
			}
			if verr := poc.VerifyStateless(&p, plan, edgeKeys.Public, opKeys.Public); verr == nil {
				t.Fatalf("%s: forged PoC verified", mode)
			}
		}
	}
}

// --- bounded retry ---

func TestTransientClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrBadPeer, false},
		{ErrBadMessage, false},
		{ErrNoConvergence, false},
		{ErrStaleProof, false},
		{ErrFrameTruncated, true},
		{io.ErrUnexpectedEOF, true},
		{errors.New("connection reset"), true},
	} {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetrierBackoffAndBudget(t *testing.T) {
	var slept []time.Duration
	r := &Retrier{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    35 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := r.Do(func(attempt int) error {
		if attempt != calls {
			t.Fatalf("attempt %d on call %d", attempt, calls)
		}
		calls++
		return io.ErrUnexpectedEOF
	})
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v", slept)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("backoff %d = %s, want %s", i, slept[i], want[i])
		}
	}
}

func TestRetrierPermanentErrorStops(t *testing.T) {
	r := &Retrier{MaxAttempts: 5}
	calls := 0
	err := r.Do(func(int) error { calls++; return ErrBadPeer })
	if !errors.Is(err, ErrBadPeer) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate ErrBadPeer", err, calls)
	}
}

func TestRetrierDeadline(t *testing.T) {
	elapsed := time.Duration(0)
	r := &Retrier{
		MaxAttempts: 10,
		BaseDelay:   100 * time.Millisecond,
		Deadline:    150 * time.Millisecond,
		Sleep:       func(d time.Duration) { elapsed += d },
		Elapsed:     func() time.Duration { return elapsed },
	}
	calls := 0
	err := r.Do(func(int) error { calls++; return io.ErrUnexpectedEOF })
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	// attempt 1 (free), backoff 100ms fits (100 <= 150), attempt 2,
	// next backoff 200ms is capped at the 50ms remaining, attempt 3,
	// budget now exhausted (elapsed == deadline): stop at 3 calls.
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if elapsed != 150*time.Millisecond {
		t.Fatalf("slept %s total, want exactly the 150ms deadline", elapsed)
	}
}

// TestRetrierBackoffNoOverflow: the doubling loop used to multiply
// first and clamp after, so with a very large MaxDelay ("effectively
// uncapped") the duration overflowed negative around attempt 40 — a
// negative Sleep returns immediately and the retry loop hot-spins.
// The clamped loop must stay positive, monotone, and saturate.
func TestRetrierBackoffNoOverflow(t *testing.T) {
	r := &Retrier{BaseDelay: time.Second, MaxDelay: 1<<63 - 1}
	prev := time.Duration(0)
	for attempt := 0; attempt < 80; attempt++ {
		d := r.backoff(attempt)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v, want positive (overflow)", attempt, d)
		}
		if d < prev {
			t.Fatalf("backoff(%d) = %v < backoff(%d) = %v, want monotone", attempt, d, attempt-1, prev)
		}
		prev = d
	}
	if prev != r.MaxDelay {
		t.Fatalf("backoff(79) = %v, want saturation at MaxDelay", prev)
	}
}

// TestRetrierSleepCappedAtDeadline: with an uncapped MaxDelay and many
// attempts, every backoff must be trimmed to the deadline remaining —
// the loop sleeps exactly the budget in total and never oversleeps,
// even where the raw doubled backoff has long since overflowed.
func TestRetrierSleepCappedAtDeadline(t *testing.T) {
	elapsed := time.Duration(0)
	r := &Retrier{
		MaxAttempts: 50,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    1<<63 - 1,
		Deadline:    time.Second,
		Sleep: func(d time.Duration) {
			if d <= 0 {
				t.Fatalf("slept %v, want positive", d)
			}
			elapsed += d
		},
		Elapsed: func() time.Duration { return elapsed },
	}
	calls := 0
	err := r.Do(func(int) error { calls++; return io.ErrUnexpectedEOF })
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	// Sleeps 100+200+400+300(capped) = the 1s budget exactly; the
	// fifth call runs with no budget left for a sixth.
	if calls != 5 {
		t.Fatalf("calls = %d, want 5", calls)
	}
	if elapsed != time.Second {
		t.Fatalf("slept %s total, want exactly the 1s deadline", elapsed)
	}
}

// TestRunWithRetryRecoversFromTruncation: the first dial hits a
// transport that dies mid-frame; the retry dials again and settles.
// Each attempt runs the party over a fresh conn inside Retrier.Do, as
// tlcd's edge does.
func TestRunWithRetryRecoversFromTruncation(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	dials := 0
	dial := func() io.ReadWriteCloser {
		dials++
		ci, cr := net.Pipe()
		if dials == 1 {
			go func() {
				if _, err := ReadFrame(cr); err != nil {
					_ = cr.Close()
					return
				}
				_, _ = cr.Write([]byte{0, 0, 1, 0, 2}) // announce 256, die
				_ = cr.Close()
			}()
			return ci
		}
		op := &Party{
			Role: poc.RoleOperator, Plan: plan, Keys: opKeys, PeerKey: edgeKeys.Public,
			Strategy: core.OptimalStrategy{}, View: view, RNG: sim.NewRNG(61),
		}
		go func() {
			_, _ = op.Run(cr, false)
			_ = cr.Close()
		}()
		return ci
	}
	edge := &Party{
		Role: poc.RoleEdge, Plan: plan, Keys: edgeKeys, PeerKey: opKeys.Public,
		Strategy: core.OptimalStrategy{}, View: view, RNG: sim.NewRNG(60),
	}
	var res *Result
	err := (&Retrier{MaxAttempts: 3}).Do(func(int) error {
		conn := dial()
		defer conn.Close() //tlcvet:allow errdiscard — test teardown; Run already closed on framing faults
		var err error
		res, err = edge.Run(conn, true)
		return err
	})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if dials != 2 {
		t.Fatalf("dials = %d, want 2", dials)
	}
	if err := poc.VerifyStateless(res.PoC, plan, edgeKeys.Public, opKeys.Public); err != nil {
		t.Fatalf("settled proof invalid: %v", err)
	}
}
