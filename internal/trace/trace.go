// Package trace records and replays packet traces. The paper replays
// tcpdump logs of VRidge/Portal-2 and King of Glory through its
// testbed (via tcprelay); this package provides the equivalent
// mechanism — an in-memory trace, a Recorder that taps a packet path,
// and a Replayer that re-emits a trace into the emulated network —
// together with synthesizers that build traces from the workload
// models since the original captures are proprietary.
package trace

import (
	"fmt"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
	"tlc/internal/sim"
)

// Trace is an in-memory packet trace for a single flow.
type Trace struct {
	Flow string
	IMSI string
	Dir  netem.Direction
	QCI  uint8

	Times []sim.Time // emission times, non-decreasing
	Sizes []int32    // bytes on the wire
}

// Len returns the number of packets.
func (t *Trace) Len() int { return len(t.Times) }

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

// Append adds one packet record. Times must be non-decreasing.
func (t *Trace) Append(at sim.Time, size int) error {
	if n := len(t.Times); n > 0 && at < t.Times[n-1] {
		return fmt.Errorf("trace: non-monotonic time %v after %v", at, t.Times[n-1])
	}
	if size <= 0 {
		return fmt.Errorf("trace: non-positive size %d", size)
	}
	t.Times = append(t.Times, at)
	t.Sizes = append(t.Sizes, int32(size))
	return nil
}

// Recorder taps a packet path and accumulates a Trace.
type Recorder struct {
	Trace *Trace
	sched *sim.Scheduler
	// Next optionally forwards packets.
	Next netem.Node
}

// NewRecorder returns a recorder capturing flow metadata from the
// first packet it sees.
func NewRecorder(sched *sim.Scheduler, next netem.Node) *Recorder {
	return &Recorder{Trace: &Trace{}, sched: sched, Next: next}
}

// Recv implements netem.Node.
func (r *Recorder) Recv(p *netem.Packet) {
	if r.Trace.Len() == 0 {
		r.Trace.Flow = p.Flow
		r.Trace.IMSI = p.IMSI
		r.Trace.Dir = p.Dir
		r.Trace.QCI = p.QCI
	}
	// Append never fails here: scheduler time is monotonic.
	_ = r.Trace.Append(r.sched.Now(), p.Size)
	if r.Next != nil {
		r.Next.Recv(p)
	}
}

// Replayer re-emits a trace into the network, like the paper's use of
// tcprelay to replay VR and gaming captures over the testbed LTE.
type Replayer struct {
	Trace *Trace
	Sched *sim.Scheduler
	IDs   *netem.IDGen
	Dst   netem.Node
	// TimeScale stretches (>1) or compresses (<1) the replay; 0
	// means 1.0 (real time).
	TimeScale float64
	// OnEmit observes every replayed packet.
	OnEmit func(*netem.Packet)

	// Pool optionally recycles emitted packets; the testbed wires
	// the same pool into the terminal sinks and drop sites.
	Pool *netem.PacketPool

	emitted uint64
	bytes   uint64
}

// Start schedules the entire trace starting at the given time.
func (r *Replayer) Start(at sim.Time) {
	scale := r.TimeScale
	if scale <= 0 {
		scale = 1
	}
	if r.Trace.Len() == 0 {
		return
	}
	t0 := r.Trace.Times[0]
	for i := range r.Trace.Times {
		i := i
		offset := time.Duration(float64(r.Trace.Times[i]-t0) * scale)
		r.Sched.AtPooled(at+offset, func() {
			pkt := r.Pool.Get()
			pkt.ID = r.IDs.Next()
			pkt.Flow = r.Trace.Flow
			pkt.IMSI = r.Trace.IMSI
			pkt.QCI = r.Trace.QCI
			pkt.Size = int(r.Trace.Sizes[i])
			pkt.Dir = r.Trace.Dir
			pkt.Sent = r.Sched.Now()
			r.emitted++
			r.bytes += uint64(pkt.Size)
			if r.OnEmit != nil {
				r.OnEmit(pkt)
			}
			r.Dst.Recv(pkt)
		})
	}
}

// Emitted returns (packets, bytes) replayed so far.
func (r *Replayer) Emitted() (uint64, uint64) { return r.emitted, r.bytes }

// Synthesize builds a trace by running a workload profile for the
// given duration on a private scheduler. It stands in for the paper's
// proprietary tcpdump captures.
func Synthesize(p apps.Profile, flow, imsi string, dur time.Duration, seed int64) *Trace {
	sched := sim.NewScheduler()
	rec := NewRecorder(sched, nil)
	st := apps.NewStreamer(p, sched, &netem.IDGen{}, rec, flow, imsi, sim.NewRNG(seed))
	st.Start(0)
	sched.RunUntil(dur)
	st.Stop()
	return rec.Trace
}
