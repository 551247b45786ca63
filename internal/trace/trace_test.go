package trace

import (
	"testing"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
	"tlc/internal/sim"
)

// Bytes and Duration are test support: no binary measures a trace.

// Bytes returns the total traced volume.
func (t *Trace) Bytes() uint64 {
	var total uint64
	for _, s := range t.Sizes {
		total += uint64(s)
	}
	return total
}

// Duration returns the time span of the trace.
func (t *Trace) Duration() time.Duration {
	if len(t.Times) == 0 {
		return 0
	}
	return t.Times[len(t.Times)-1] - t.Times[0]
}

func sampleTrace(t *testing.T) *Trace {
	t.Helper()
	tr := &Trace{Flow: "vr", IMSI: "imsi9", Dir: netem.Downlink, QCI: 9}
	for i, rec := range []struct {
		at   sim.Time
		size int
	}{{0, 1400}, {time.Millisecond, 1400}, {16 * time.Millisecond, 900}} {
		if err := tr.Append(rec.at, rec.size); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return tr
}

func TestTraceAccessors(t *testing.T) {
	tr := sampleTrace(t)
	if tr.Len() != 3 || tr.Bytes() != 3700 || tr.Duration() != 16*time.Millisecond {
		t.Fatalf("len=%d bytes=%d dur=%v", tr.Len(), tr.Bytes(), tr.Duration())
	}
	empty := &Trace{}
	if empty.Duration() != 0 || empty.Bytes() != 0 {
		t.Fatal("empty trace accessors nonzero")
	}
}

func TestAppendValidation(t *testing.T) {
	tr := &Trace{}
	if err := tr.Append(time.Second, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Append(500*time.Millisecond, 100); err == nil {
		t.Fatal("non-monotonic append accepted")
	}
	if err := tr.Append(2*time.Second, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := tr.Append(time.Second, 100); err != nil {
		t.Fatal("equal-time append rejected")
	}
}

func TestRecorderCapturesMetadataAndForwards(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	rec := NewRecorder(s, sink)
	s.At(time.Second, func() {
		rec.Recv(&netem.Packet{Flow: "game", IMSI: "i7", QCI: 7, Size: 100, Dir: netem.Downlink})
	})
	s.At(2*time.Second, func() {
		rec.Recv(&netem.Packet{Flow: "game", IMSI: "i7", QCI: 7, Size: 150, Dir: netem.Downlink})
	})
	s.Run()
	tr := rec.Trace
	if tr.Flow != "game" || tr.IMSI != "i7" || tr.QCI != 7 || tr.Dir != netem.Downlink {
		t.Fatalf("metadata = %+v", tr)
	}
	if tr.Len() != 2 || tr.Times[0] != time.Second || tr.Sizes[1] != 150 {
		t.Fatalf("records = %v %v", tr.Times, tr.Sizes)
	}
	if sink.Packets != 2 {
		t.Fatal("recorder did not forward")
	}
}

func TestReplayerReproducesTiming(t *testing.T) {
	tr := sampleTrace(t)
	s := sim.NewScheduler()
	var times []sim.Time
	var sizes []int
	sink := netem.NodeFunc(func(p *netem.Packet) {
		times = append(times, s.Now())
		sizes = append(sizes, p.Size)
	})
	rp := &Replayer{Trace: tr, Sched: s, IDs: &netem.IDGen{}, Dst: sink}
	rp.Start(time.Second)
	s.Run()
	if len(times) != 3 {
		t.Fatalf("replayed %d packets", len(times))
	}
	want := []sim.Time{time.Second, time.Second + time.Millisecond, time.Second + 16*time.Millisecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
		if sizes[i] != int(tr.Sizes[i]) {
			t.Fatalf("sizes = %v", sizes)
		}
	}
}

func TestReplayerTimeScale(t *testing.T) {
	tr := sampleTrace(t)
	s := sim.NewScheduler()
	var last sim.Time
	sink := netem.NodeFunc(func(p *netem.Packet) { last = s.Now() })
	rp := &Replayer{Trace: tr, Sched: s, IDs: &netem.IDGen{}, Dst: sink, TimeScale: 2}
	rp.Start(0)
	s.Run()
	if last != 32*time.Millisecond {
		t.Fatalf("stretched replay ended at %v, want 32ms", last)
	}
}

func TestReplayerEmptyTrace(t *testing.T) {
	s := sim.NewScheduler()
	rp := &Replayer{Trace: &Trace{}, Sched: s, IDs: &netem.IDGen{}, Dst: &netem.Sink{}}
	rp.Start(0) // must not panic
	s.Run()
}

func TestSynthesizeVRidge(t *testing.T) {
	tr := Synthesize(apps.VRidgeGVSP, "vr", "imsi1", 10*time.Second, 42)
	if tr.Len() == 0 {
		t.Fatal("empty synthetic trace")
	}
	mbps := float64(tr.Bytes()) * 8 / 10 / 1e6
	if mbps < 7.5 || mbps > 10.5 {
		t.Fatalf("synthetic VR bitrate = %.2f Mbps, want ~9", mbps)
	}
	if tr.Dir != netem.Downlink || tr.Flow != "vr" {
		t.Fatalf("metadata = %+v", tr)
	}
	// Deterministic for a fixed seed.
	tr2 := Synthesize(apps.VRidgeGVSP, "vr", "imsi1", 10*time.Second, 42)
	if tr2.Len() != tr.Len() || tr2.Bytes() != tr.Bytes() {
		t.Fatal("synthesis not deterministic")
	}
}
