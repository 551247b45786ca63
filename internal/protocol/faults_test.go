package protocol

import (
	"bytes"
	"errors"
	"io"
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
	// A valid header announcing 10 body bytes, then only 3 of them.
	var wire bytes.Buffer
	if err := WriteFrame(&wire, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(bytes.NewReader(wire.Bytes()[:FrameHeaderSize+3]))
	if !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("partial body: %v, want ErrFrameTruncated", err)
	}
}

// TestReadFrameRefusesDamagedLength: every single-bit flip of a valid
// header's length word reads as ErrFrameCorrupt at the header, so a
// damaged length never leaves the reader waiting for a body.
func TestReadFrameRefusesDamagedLength(t *testing.T) {
	for _, n := range []int{0, 1, 185, 576, MaxFrame} {
		var wire bytes.Buffer
		if err := WriteFrame(&wire, bytes.Repeat([]byte{7}, n)); err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 32; bit++ {
			hdr := bytes.Clone(wire.Bytes()[:FrameHeaderSize])
			hdr[3-bit/8] ^= 1 << (bit % 8)
			if _, err := ReadFrame(&headerOnly{t: t, hdr: hdr}); !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("%d-byte body, length bit %d flipped: %v, want ErrFrameCorrupt", n, bit, err)
			}
		}
	}
}

// headerOnly serves one frame header and fails the test on any read
// past it.
type headerOnly struct {
	t   *testing.T
	hdr []byte
}

func (r *headerOnly) Read(p []byte) (int, error) {
	if len(r.hdr) == 0 {
		r.t.Fatal("ReadFrame read past the header")
	}
	n := copy(p, r.hdr)
	r.hdr = r.hdr[n:]
	return n, nil
}

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

// TestRunOutcomeAccounting pins how RunPair and Byzantine.Play
// account each outcome: the protocol_*_total counters it moves and the
// typed error it returns. A failed RunPair classifies only the side
// that failed; its peer counts as failed, unclassified.
func TestRunOutcomeAccounting(t *testing.T) {
	view := core.View{Sent: 1000, Received: 900}
	e0, o0 := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 29)
	ro, _, err := RunPair(o0, e0)
	if err != nil {
		t.Fatal(err)
	}
	stale := ro.PoC

	byzantine := func(mode string, seed int64) error {
		edge, _ := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, seed)
		b := &Byzantine{
			Mode: mode, Role: poc.RoleOperator, Plan: plan,
			Keys: opKeys, RNG: sim.NewRNG(34), Stale: stale,
		}
		_, err := b.Play(edge)
		return err
	}
	const (
		started  = "protocol_negotiations_started_total"
		settled  = "protocol_negotiations_settled_total"
		failed   = "protocol_negotiations_failed_total"
		rounds   = "protocol_rounds_total"
		staleRej = "protocol_stale_proof_rejections_total"
		byzRej   = "protocol_byzantine_rejections_total"
	)
	cases := []struct {
		name   string
		run    func() error
		want   error
		deltas map[string]float64
	}{
		{
			name: "settled",
			run: func() error {
				edge, op := parties(core.OptimalStrategy{}, core.OptimalStrategy{}, view, view, 30)
				_, _, err := RunPair(op, edge)
				return err
			},
			deltas: map[string]float64{started: 2, settled: 2, rounds: 2},
		},
		{
			name:   "stale_proof",
			run:    func() error { return byzantine(ByzReplay, 31) },
			want:   ErrStaleProof,
			deltas: map[string]float64{started: 1, failed: 1, staleRej: 1},
		},
		{
			name:   "bad_peer",
			run:    func() error { return byzantine(ByzTamper, 32) },
			want:   ErrBadPeer,
			deltas: map[string]float64{started: 1, failed: 1, byzRej: 1},
		},
		{
			name: "no_convergence",
			run: func() error {
				edge, op := parties(core.OptimalStrategy{}, rejectAll{}, view, view, 34)
				op.MaxRounds, edge.MaxRounds = 8, 256
				_, _, err := RunPair(op, edge)
				return err
			},
			want:   ErrNoConvergence,
			deltas: map[string]float64{started: 2, failed: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := protocolCounters()
			if err := tc.run(); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
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
		Keys: opKeys, RNG: sim.NewRNG(33), Stale: stale,
	}
	sent, err := byz.Play(edge)
	if !errors.Is(err, ErrStaleProof) {
		t.Fatalf("err = %v, want ErrStaleProof", err)
	}
	if len(sent) != 1 {
		t.Fatalf("byzantine side sent %d frames, want the one stale proof", len(sent))
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
			Keys: opKeys, RNG: sim.NewRNG(int64(50 + i)),
		}
		sent, err := byz.Play(edge)
		if err == nil {
			t.Fatalf("%s: honest side accepted a forgery", mode)
		}
		if !errors.Is(err, ErrBadPeer) && !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: err = %v, want a typed protocol rejection", mode, err)
		}
		if len(sent) == 0 {
			t.Fatalf("%s: byzantine side sent nothing", mode)
		}
		// No frame the adversary emitted may ever verify as a PoC.
		for _, data := range sent {
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
		{ErrFrameCorrupt, true},
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
		MaxAttempts: 8,
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
	if calls != 8 {
		t.Fatalf("calls = %d, want 8", calls)
	}
	// Doubling from 50ms, capped at 2s.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second}
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

// TestRetrierBackoffNoOverflow: a doubling loop that multiplies first
// and clamps after overflows negative around attempt 40 — a negative
// Sleep returns immediately and the retry loop hot-spins. The backoff
// must stay positive, monotone, and saturate at the cap.
func TestRetrierBackoffNoOverflow(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 0; attempt < 80; attempt++ {
		d := backoff(attempt)
		if d <= 0 {
			t.Fatalf("backoff(%d) = %v, want positive (overflow)", attempt, d)
		}
		if d < prev {
			t.Fatalf("backoff(%d) = %v < backoff(%d) = %v, want monotone", attempt, d, attempt-1, prev)
		}
		prev = d
	}
	if prev != retryMaxDelay {
		t.Fatalf("backoff(79) = %v, want saturation at %v", prev, retryMaxDelay)
	}
}
