// Package apps generates the edge application workloads of §7.1:
// WebCam streaming for video analytics (RTSP and legacy UDP),
// edge-based virtual reality (VRidge over the GigE Vision stream
// protocol), and online mobile gaming acceleration (King-of-Glory
// style control traffic on a dedicated QCI=7 bearer).
//
// The paper replays VLC camera streams and tcpdump traces; this
// repository has neither the camera nor the proprietary traces, so it
// generates synthetic streams matched to the paper's reported
// characteristics: average bitrate, frame rate, frame-size burstiness
// and direction (see DESIGN.md's substitution table).
package apps

import (
	"math"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// Profile describes one application workload.
type Profile struct {
	Name string
	// Dir is the data direction: uplink for camera streams, downlink
	// for VR frames and game state.
	Dir netem.Direction
	// QCI is the bearer class the flow requests (gaming uses the
	// dedicated QCI=7 bearer of §2.2; everything else rides the
	// default QCI=9 bearer).
	QCI uint8

	// Frame-based streams (video/VR):
	FPS              float64
	MeanFrameBytes   int
	FrameSigma       float64 // lognormal-ish multiplicative spread
	KeyFrameInterval int     // every Nth frame is a key frame
	KeyFrameScale    float64 // key frame size multiplier
	MTU              int     // fragmentation threshold
	HeaderBytes      int     // per-packet protocol overhead (RTP/GVSP/UDP/IP)

	// Packet-based streams (gaming):
	PacketMode bool
	PacketSize int
	PacketRate float64 // packets per second
}

// AvgBitrate returns the profile's nominal average bit rate in bits
// per second, including per-packet header overhead.
func (p Profile) AvgBitrate() float64 {
	if p.PacketMode {
		return p.PacketRate * float64(p.PacketSize+p.HeaderBytes) * 8
	}
	frames := p.FPS
	pktsPerFrame := math.Ceil(float64(p.MeanFrameBytes) / float64(p.MTU))
	return frames * (float64(p.MeanFrameBytes) + pktsPerFrame*float64(p.HeaderBytes)) * 8
}

// The four §7.1 workloads, calibrated to Table 2's average bitrates
// (0.77 / 1.73 / 9.0 / 0.02 Mbps).
var (
	// WebCamRTSP is the 1920x1080p30 H.264 camera stream carried
	// over RTSP/RTP, uplink from the roadside camera (§2.2).
	WebCamRTSP = Profile{
		Name: "WebCam-RTSP", Dir: netem.Uplink, QCI: 9,
		FPS: 30, MeanFrameBytes: 3050, FrameSigma: 0.35,
		KeyFrameInterval: 30, KeyFrameScale: 6,
		MTU: 1400, HeaderBytes: 40,
	}
	// WebCamUDP is the same camera encoded at a higher rate and
	// pushed over legacy UDP without RTSP flow control.
	WebCamUDP = Profile{
		Name: "WebCam-UDP", Dir: netem.Uplink, QCI: 9,
		FPS: 30, MeanFrameBytes: 6950, FrameSigma: 0.35,
		KeyFrameInterval: 30, KeyFrameScale: 6,
		MTU: 1400, HeaderBytes: 28,
	}
	// VRidgeGVSP is the 1920x1080p60 VR graphical frame stream,
	// downlink from the edge server to the headset (GVSP, §2.2).
	VRidgeGVSP = Profile{
		Name: "VRidge-GVSP", Dir: netem.Downlink, QCI: 9,
		FPS: 60, MeanFrameBytes: 18200, FrameSigma: 0.3,
		KeyFrameInterval: 60, KeyFrameScale: 3,
		MTU: 1400, HeaderBytes: 36,
	}
	// Gaming is the King-of-Glory style player-control stream on a
	// dedicated high-QoS bearer (QCI=7), downlink server-to-device.
	Gaming = Profile{
		Name: "Gaming-QCI7", Dir: netem.Downlink, QCI: 7,
		PacketMode: true, PacketSize: 72, PacketRate: 25, HeaderBytes: 28,
	}
)

// Workloads lists the four profiles in the order the paper's tables
// present them.
var Workloads = []Profile{WebCamRTSP, WebCamUDP, VRidgeGVSP, Gaming}

// WithDirection returns a copy of the profile streaming in the given
// direction; the paper's Figure 4/14 use a *downlink* UDP WebCam.
func (p Profile) WithDirection(d netem.Direction) Profile {
	out := p
	out.Dir = d
	if d != p.Dir {
		out.Name = p.Name + "-" + d.String()
	}
	return out
}

// ProfileByName returns a workload profile by its Name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Workloads {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Streamer emits one application flow into the network. For frame
// profiles each frame fragments into MTU-sized packets emitted
// back-to-back (the burstiness that overflows air-interface queues);
// for packet profiles it emits individual datagrams.
type Streamer struct {
	Profile Profile
	Sched   *sim.Scheduler
	IDs     *netem.IDGen
	Dst     netem.Node
	Flow    string
	IMSI    string
	RNG     *sim.RNG

	// OnEmit observes every emitted packet before it enters the
	// network; the edge vendor's sender-side monitor taps here.
	OnEmit func(*netem.Packet)

	// Pool optionally recycles emitted packets; the testbed wires
	// the same pool into the terminal sinks and drop sites.
	Pool *netem.PacketPool

	stopped    bool
	frameCount uint64
	emitFn     func() // bound frame/packet emitter, allocated once
}

// NewStreamer builds a streamer for the profile.
func NewStreamer(p Profile, sched *sim.Scheduler, ids *netem.IDGen, dst netem.Node, flow, imsi string, rng *sim.RNG) *Streamer {
	return &Streamer{Profile: p, Sched: sched, IDs: ids, Dst: dst, Flow: flow, IMSI: imsi, RNG: rng}
}

// Start begins emission at the given simulated time.
func (s *Streamer) Start(at sim.Time) {
	if s.Profile.PacketMode {
		s.emitFn = s.emitPacket
	} else {
		s.emitFn = s.emitFrame
	}
	s.Sched.AtPooled(at, s.emitFn)
}

// Stop halts emission.
func (s *Streamer) Stop() { s.stopped = true }

func (s *Streamer) send(size int) {
	pkt := s.Pool.Get()
	pkt.ID = s.IDs.Next()
	pkt.Flow = s.Flow
	pkt.IMSI = s.IMSI
	pkt.QCI = s.Profile.QCI
	pkt.Size = size
	pkt.Dir = s.Profile.Dir
	pkt.Sent = s.Sched.Now()
	if s.OnEmit != nil {
		s.OnEmit(pkt)
	}
	s.Dst.Recv(pkt)
}

// frameSize draws the next frame size. Key frames every
// KeyFrameInterval are KeyFrameScale times larger; the base size is
// rescaled so that the long-run mean stays MeanFrameBytes.
func (s *Streamer) frameSize() int {
	p := s.Profile
	base := float64(p.MeanFrameBytes)
	if p.KeyFrameInterval > 1 && p.KeyFrameScale > 1 {
		// mean = base * ((n-1) + scale) / n  =>  solve for base.
		n := float64(p.KeyFrameInterval)
		base = float64(p.MeanFrameBytes) * n / (n - 1 + p.KeyFrameScale)
		if s.frameCount%uint64(p.KeyFrameInterval) == 0 {
			base *= p.KeyFrameScale
		}
	}
	if p.FrameSigma > 0 && s.RNG != nil {
		// Multiplicative jitter with mean 1: exp(N(-sigma^2/2, sigma)).
		m := math.Exp(s.RNG.Norm(-p.FrameSigma*p.FrameSigma/2, p.FrameSigma))
		base *= m
	}
	if base < 64 {
		base = 64
	}
	return int(base)
}

func (s *Streamer) emitFrame() {
	if s.stopped {
		return
	}
	size := s.frameSize()
	s.frameCount++
	mtu := s.Profile.MTU
	if mtu <= 0 {
		mtu = 1400
	}
	for size > 0 {
		chunk := size
		if chunk > mtu {
			chunk = mtu
		}
		s.send(chunk + s.Profile.HeaderBytes)
		size -= chunk
	}
	gap := time.Duration(float64(time.Second) / s.Profile.FPS)
	s.Sched.AfterPooled(gap, s.emitFn)
}

func (s *Streamer) emitPacket() {
	if s.stopped {
		return
	}
	s.frameCount++
	s.send(s.Profile.PacketSize + s.Profile.HeaderBytes)
	mean := time.Duration(float64(time.Second) / s.Profile.PacketRate)
	gap := mean
	if s.RNG != nil {
		// Game ticks are quasi-periodic; add light jitter.
		gap = time.Duration(float64(mean) * (1 + s.RNG.Uniform(-0.2, 0.2)))
	}
	s.Sched.AfterPooled(gap, s.emitFn)
}
