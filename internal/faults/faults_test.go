package faults

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// TestParseStreamKeys: Parse reads the four stream keys that
// cmd/tlcd's -faults flag applies, and nothing else.
func TestParseStreamKeys(t *testing.T) {
	spec, err := Parse(" corrupt=0.01, stall=0.05,stallfor=20ms , truncate=0.003,")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := Spec{CorruptP: 0.01, TruncateP: 0.003, StallP: 0.05, StallFor: 20 * time.Millisecond}
	if spec != want {
		t.Fatalf("Parse = %+v, want %+v", spec, want)
	}
}

// TestParseRejectsUnappliedKeys: a network, component or byzantine key
// used to parse and then inject nothing, because tlcd applies only the
// stream faults. Each must now fail with an error naming the key.
func TestParseRejectsUnappliedKeys(t *testing.T) {
	for _, tc := range []struct{ in, key string }{
		{"burst=0.1", "burst"},
		{"byz=replay", "byz"},
		{"ofcs-crash=1s", "ofcs-crash"},
		{"corrupt=0.01,dup=0.005", "dup"},
	} {
		_, err := Parse(tc.in)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.key)) {
			t.Errorf("Parse(%q) err = %v, want an error naming %q", tc.in, err, tc.key)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"nope=1", "corrupt", "corrupt=-0.1", "truncate=1.5", "stall=x", "stall=NaN",
		"stallfor=xyz", "stallfor=-2s",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = nil error, want failure", bad)
		}
	}
	spec, err := Parse("")
	if err != nil || !spec.Zero() {
		t.Fatalf("empty spec: %+v, %v", spec, err)
	}
}

func TestSpecPredicates(t *testing.T) {
	if !(Spec{}).Zero() {
		t.Fatal("zero Spec not Zero()")
	}
	if !(Spec{BurstP: 0.1}).NetworkActive() {
		t.Fatal("burst not NetworkActive")
	}
	if !(Spec{OFCSCrashAt: time.Second}).ComponentActive() {
		t.Fatal("crash not ComponentActive")
	}
	if !(Spec{CorruptP: 0.1}).StreamActive() {
		t.Fatal("corrupt not StreamActive")
	}
}

// TestNetFaultsDeterministic replays the same seeded injector over the
// same packet stream twice and requires identical actions, counters
// and trace summaries.
func TestNetFaultsDeterministic(t *testing.T) {
	spec := Spec{BurstP: 0.05, BurstLen: 4, DupP: 0.03, ReorderP: 0.05, SpikeP: 0.01}
	run := func() (string, []netem.FaultAction, uint64) {
		tr := &Trace{}
		nf := NewNetFaults(spec, sim.NewRNG(7), tr, "lnk")
		var acts []netem.FaultAction
		pkt := &netem.Packet{Size: 1200}
		for i := 0; i < 5000; i++ {
			pkt.ID = uint64(i)
			acts = append(acts, nf.Apply(pkt, sim.Time(i)))
		}
		return tr.Summary(), acts, nf.Drops + nf.Dups + nf.Holds + nf.Spikes
	}
	s1, a1, n1 := run()
	s2, a2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("trace diverged: %s (%d) vs %s (%d)", s1, n1, s2, n2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("action %d diverged: %+v vs %+v", i, a1[i], a2[i])
		}
	}
	if n1 == 0 {
		t.Fatal("no faults fired at these probabilities over 5000 packets")
	}
}

// TestNetFaultsFamilyIsolation: enabling only one family must not
// consume draws for the others — disabling duplication leaves the
// burst pattern untouched.
func TestNetFaultsFamilyIsolation(t *testing.T) {
	drops := func(spec Spec) []int {
		nf := NewNetFaults(spec, sim.NewRNG(11), nil, "lnk")
		var out []int
		pkt := &netem.Packet{Size: 100}
		for i := 0; i < 3000; i++ {
			pkt.ID = uint64(i)
			if nf.Apply(pkt, 0).Drop {
				out = append(out, i)
			}
		}
		return out
	}
	a := drops(Spec{BurstP: 0.02, BurstLen: 3})
	b := drops(Spec{BurstP: 0.02, BurstLen: 3, DupP: 0, ReorderP: 0, SpikeP: 0})
	if len(a) == 0 {
		t.Fatal("no drops")
	}
	if len(a) != len(b) {
		t.Fatalf("drop schedule changed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop %d moved: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTraceSummaryAndCap(t *testing.T) {
	a, b := &Trace{Keep: 4}, &Trace{Keep: 4}
	for i := 0; i < 10; i++ {
		a.Addf(sim.Time(i), "ev %d", i)
		b.Addf(sim.Time(i), "ev %d", i)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("equal traces summarize differently: %s vs %s", a.Summary(), b.Summary())
	}
	if len(a.Entries()) != 4 || a.Len() != 10 {
		t.Fatalf("keep window wrong: %d entries, len %d", len(a.Entries()), a.Len())
	}
	b.Addf(0, "extra")
	if a.Summary() == b.Summary() {
		t.Fatal("hash failed to distinguish a beyond-window divergence")
	}
	var nilT *Trace
	nilT.Addf(0, "ignored")
	if nilT.Len() != 0 || nilT.Summary() != "entries=0 hash=0000000000000000" {
		t.Fatalf("nil trace misbehaved: %s", nilT.Summary())
	}
}

func TestConnCorruptsReads(t *testing.T) {
	payload := bytes.Repeat([]byte{0xaa}, 256)
	c := &Conn{
		Inner: struct{ io.ReadWriter }{bytes.NewBuffer(append([]byte(nil), payload...))},
		Spec:  Spec{CorruptP: 1},
		RNG:   sim.NewRNG(3),
	}
	buf := make([]byte, len(payload))
	n, err := io.ReadFull(c, buf)
	if err != nil || n != len(payload) {
		t.Fatalf("read: %d, %v", n, err)
	}
	if bytes.Equal(buf, payload) {
		t.Fatal("CorruptP=1 read came back clean")
	}
	if c.Corrupted == 0 {
		t.Fatal("corruption counter stayed zero")
	}
}

type closeRecorder struct {
	bytes.Buffer
	closed bool
}

func (c *closeRecorder) Close() error { c.closed = true; return nil }

func TestConnTruncatesAndCloses(t *testing.T) {
	rec := &closeRecorder{}
	c := &Conn{Inner: rec, Spec: Spec{TruncateP: 1}, RNG: sim.NewRNG(5), Trace: &Trace{}}
	msg := []byte("0123456789abcdef")
	n, err := c.Write(msg)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncate error, got %v", err)
	}
	if n != len(msg)/2 || rec.Len() != len(msg)/2 {
		t.Fatalf("wrote %d (buffer %d), want %d", n, rec.Len(), len(msg)/2)
	}
	if !rec.closed {
		t.Fatal("transport not closed after truncation")
	}
	if c.Trace.Len() == 0 {
		t.Fatal("truncation left no trace")
	}
}

func TestConnStallInjectable(t *testing.T) {
	var stalled time.Duration
	c := &Conn{
		Inner: &bytes.Buffer{},
		Spec:  Spec{StallP: 1, StallFor: 30 * time.Millisecond},
		RNG:   sim.NewRNG(9),
		Stall: func(d time.Duration) { stalled += d },
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if stalled != 30*time.Millisecond || c.Stalls != 1 {
		t.Fatalf("stall not recorded: %s, count %d", stalled, c.Stalls)
	}
}

// TestConnZeroSpecPassthrough: a zero Spec must not consume RNG draws
// or perturb data.
func TestConnZeroSpecPassthrough(t *testing.T) {
	rng := sim.NewRNG(1)
	before := rng.Int63()
	rng = sim.NewRNG(1)
	buf := bytes.NewBufferString("hello")
	c := &Conn{Inner: buf, RNG: rng}
	out := make([]byte, 5)
	if _, err := io.ReadFull(c, out); err != nil || string(out) != "hello" {
		t.Fatalf("read: %q, %v", out, err)
	}
	if _, err := c.Write([]byte("world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := rng.Int63(); got != before {
		t.Fatalf("zero spec consumed RNG draws: %d vs %d", got, before)
	}
}
