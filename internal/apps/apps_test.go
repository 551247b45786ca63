package apps

import (
	"math"
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// runStreamer emits p for dur into a Sink, which counts every packet
// and byte the streamer sent.
func runStreamer(t *testing.T, p Profile, dur time.Duration, seed int64) *netem.Sink {
	t.Helper()
	s := sim.NewScheduler()
	ids := &netem.IDGen{}
	sink := &netem.Sink{}
	st := NewStreamer(p, s, ids, sink, p.Name, "imsi1", sim.NewRNG(seed))
	st.Start(0)
	s.RunUntil(dur)
	st.Stop()
	return sink
}

// bitrate checks the measured average bitrate against the paper's
// Table 2 value within a tolerance.
func checkBitrate(t *testing.T, p Profile, wantMbps, tolFrac float64) {
	t.Helper()
	sink := runStreamer(t, p, 60*time.Second, 7)
	got := float64(sink.Bytes) * 8 / 60 / 1e6
	if math.Abs(got-wantMbps) > wantMbps*tolFrac {
		t.Fatalf("%s bitrate = %.3f Mbps, want %.3f +/- %.0f%%",
			p.Name, got, wantMbps, tolFrac*100)
	}
}

func TestWebCamRTSPBitrate(t *testing.T) { checkBitrate(t, WebCamRTSP, 0.77, 0.12) }
func TestWebCamUDPBitrate(t *testing.T)  { checkBitrate(t, WebCamUDP, 1.73, 0.12) }
func TestVRidgeBitrate(t *testing.T)     { checkBitrate(t, VRidgeGVSP, 9.0, 0.12) }
func TestGamingBitrate(t *testing.T)     { checkBitrate(t, Gaming, 0.02, 0.15) }

func TestAvgBitrateFormulaTracksMeasurement(t *testing.T) {
	for _, p := range []Profile{WebCamRTSP, WebCamUDP, VRidgeGVSP, Gaming} {
		sink := runStreamer(t, p, 30*time.Second, 3)
		measured := float64(sink.Bytes) * 8 / 30
		nominal := p.AvgBitrate()
		if math.Abs(measured-nominal) > nominal*0.2 {
			t.Fatalf("%s: nominal %.0f bps vs measured %.0f bps", p.Name, nominal, measured)
		}
	}
}

func TestDirectionsAndQCI(t *testing.T) {
	if WebCamRTSP.Dir != netem.Uplink || WebCamUDP.Dir != netem.Uplink {
		t.Fatal("webcam streams must be uplink")
	}
	if VRidgeGVSP.Dir != netem.Downlink || Gaming.Dir != netem.Downlink {
		t.Fatal("VR and gaming must be downlink")
	}
	if Gaming.QCI != 7 {
		t.Fatal("gaming must ride the dedicated QCI=7 bearer")
	}
	if WebCamRTSP.QCI != 9 || VRidgeGVSP.QCI != 9 {
		t.Fatal("streams other than gaming ride the default bearer")
	}
}

func TestFrameFragmentation(t *testing.T) {
	p := Profile{
		Name: "big", Dir: netem.Downlink, QCI: 9,
		FPS: 1, MeanFrameBytes: 5000, MTU: 1400, HeaderBytes: 40,
	}
	s := sim.NewScheduler()
	var sizes []int
	sink := netem.NodeFunc(func(pk *netem.Packet) { sizes = append(sizes, pk.Size) })
	st := NewStreamer(p, s, &netem.IDGen{}, sink, "f", "i", nil)
	st.Start(0)
	s.RunUntil(500 * time.Millisecond) // exactly one frame
	// 5000 bytes at MTU 1400: 1400+1400+1400+800, each +40 header.
	want := []int{1440, 1440, 1440, 840}
	if len(sizes) != len(want) {
		t.Fatalf("fragments = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("fragments = %v, want %v", sizes, want)
		}
	}
	if st.frameCount != 1 {
		t.Fatalf("frames=%d, want 1", st.frameCount)
	}
}

func TestKeyFramesAreLarger(t *testing.T) {
	p := Profile{
		Name: "kf", Dir: netem.Uplink, QCI: 9,
		FPS: 10, MeanFrameBytes: 3000, KeyFrameInterval: 10, KeyFrameScale: 5,
		MTU: 100000, HeaderBytes: 0, // no fragmentation: 1 packet per frame
	}
	s := sim.NewScheduler()
	var sizes []int
	sink := netem.NodeFunc(func(pk *netem.Packet) { sizes = append(sizes, pk.Size) })
	st := NewStreamer(p, s, &netem.IDGen{}, sink, "f", "i", nil)
	st.Start(0)
	s.RunUntil(3 * time.Second)
	st.Stop()
	if len(sizes) < 20 {
		t.Fatalf("only %d frames", len(sizes))
	}
	// Frames 0, 10, 20 are key frames: exactly KeyFrameScale larger
	// than the others (no jitter configured).
	ratio := float64(sizes[0]) / float64(sizes[1])
	if math.Abs(ratio-5) > 0.01 {
		t.Fatalf("key frame %d vs delta frame %d, want 5x", sizes[0], sizes[1])
	}
	if sizes[10] != sizes[0] || sizes[11] != sizes[1] {
		t.Fatal("key frame cadence wrong")
	}
	// Long-run mean stays near MeanFrameBytes.
	sum := 0
	for _, v := range sizes[:30] {
		sum += v
	}
	mean := float64(sum) / 30
	if math.Abs(mean-3000) > 30 {
		t.Fatalf("mean frame = %.0f, want 3000", mean)
	}
}

func TestStopHaltsEmission(t *testing.T) {
	s := sim.NewScheduler()
	sink := &netem.Sink{}
	st := NewStreamer(Gaming, s, &netem.IDGen{}, sink, "g", "i", sim.NewRNG(1))
	st.Start(0)
	s.RunUntil(time.Second)
	st.Stop()
	before := sink.Packets
	s.RunUntil(5 * time.Second)
	if sink.Packets > before+1 {
		t.Fatalf("emission continued after Stop: %d -> %d", before, sink.Packets)
	}
}

func TestPacketFieldsPopulated(t *testing.T) {
	s := sim.NewScheduler()
	var got *netem.Packet
	sink := netem.NodeFunc(func(p *netem.Packet) {
		if got == nil {
			got = p
		}
	})
	st := NewStreamer(Gaming, s, &netem.IDGen{}, sink, "game-flow", "imsi42", sim.NewRNG(1))
	st.Start(time.Second)
	s.RunUntil(1100 * time.Millisecond)
	st.Stop()
	if got == nil {
		t.Fatal("no packet emitted")
	}
	if got.Flow != "game-flow" || got.IMSI != "imsi42" || got.QCI != 7 ||
		got.Dir != netem.Downlink || got.ID == 0 || got.Sent != time.Second {
		t.Fatalf("packet fields = %+v", got)
	}
	if got.Size != Gaming.PacketSize+Gaming.HeaderBytes {
		t.Fatalf("packet size = %d", got.Size)
	}
}

func TestProfileByName(t *testing.T) {
	p, ok := ProfileByName("VRidge-GVSP")
	if !ok || p.FPS != 60 {
		t.Fatalf("ProfileByName = %+v, %v", p, ok)
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("unknown profile found")
	}
	if len(Workloads) != 4 {
		t.Fatalf("Workloads = %d entries, want 4", len(Workloads))
	}
}

func TestTinyFrameFloor(t *testing.T) {
	p := Profile{
		Name: "tiny", Dir: netem.Uplink, FPS: 10,
		MeanFrameBytes: 10, FrameSigma: 2, MTU: 1400,
	}
	sink := runStreamer(t, p, time.Second, 5)
	if sink.Packets == 0 {
		t.Fatal("no packets")
	}
	if sink.Bytes < 64*sink.Packets {
		t.Fatal("frame floor of 64 bytes not applied")
	}
}
