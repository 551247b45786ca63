// Package transport implements a minimal reliable transport (a
// TCP-like ARQ with cumulative ACKs and a retransmission timer) over
// the netem substrate. It exists to reproduce the paper's §3.1 gap
// cause (4): "Transport-layer retransmission: The data can be
// over-charged due to spurious retransmission" [12] — every
// retransmitted copy crosses the gateway's metering point and is
// charged, even when the original was merely delayed, while the
// application-level received volume counts each byte once.
package transport

import (
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// Segment numbers are carried in the packet ID space; the sender owns
// an IDGen and maps IDs to sequence numbers.

// ackMsg models the reverse-path acknowledgement. ACKs ride outside
// the metered data path (the receiver invokes the sender's Ack
// directly after the reverse propagation delay).
type ackMsg struct {
	cumSeq uint64
}

// Sender is the reliable sending endpoint.
type Sender struct {
	Sched *sim.Scheduler
	IDs   *netem.IDGen
	// Dst is the forward data path (through the metered network).
	Dst netem.Node
	// Flow/IMSI/QCI/Dir stamp outgoing segments.
	Flow string
	IMSI string
	QCI  uint8
	Dir  netem.Direction

	// SegmentSize is the payload bytes per segment.
	SegmentSize int
	// Window is the send window in segments.
	Window int
	// RTO is the (fixed) retransmission timeout. A short RTO
	// relative to the path RTT produces spurious retransmissions.
	RTO time.Duration
	// MaxRetries bounds retransmissions per segment.
	MaxRetries int
	// BackoffFactor, when > 1, multiplies the timeout per retry of a
	// segment (exponential backoff), which keeps retransmissions from
	// hammering a path under injected fault bursts. Values <= 1 keep
	// the paper's fixed-RTO behaviour exactly.
	BackoffFactor float64

	// ReverseDelay is the ACK path latency.
	ReverseDelay time.Duration

	nextSeq    uint64 // next sequence to send
	ackedTo    uint64 // cumulative ack (all < ackedTo delivered)
	toSend     uint64 // application backlog in segments
	inFlight   map[uint64]*flight
	sentData   uint64 // bytes handed to the network incl. rtx
	uniqueData uint64 // bytes of distinct segments sent once
	rtxData    uint64 // retransmitted bytes
	spurious   uint64 // retransmissions for segments already delivered
	done       func()
}

type flight struct {
	timer   *sim.Event
	retries int
}

// NewSender builds a sender with sane defaults.
func NewSender(sched *sim.Scheduler, ids *netem.IDGen, dst netem.Node, flow, imsi string) *Sender {
	return &Sender{
		Sched: sched, IDs: ids, Dst: dst, Flow: flow, IMSI: imsi,
		QCI: 9, SegmentSize: 1400, Window: 32,
		RTO: 200 * time.Millisecond, MaxRetries: 8,
		ReverseDelay: 10 * time.Millisecond,
		inFlight:     map[uint64]*flight{},
	}
}

// Transfer queues n segments for reliable delivery and starts
// sending; onDone (optional) fires when everything is acknowledged.
func (s *Sender) Transfer(segments int, onDone func()) {
	s.toSend += uint64(segments)
	s.done = onDone
	s.pump()
}

// pump fills the window.
func (s *Sender) pump() {
	for s.nextSeq < s.ackedTo+uint64(s.Window) && s.nextSeq < s.toSend {
		seq := s.nextSeq
		s.nextSeq++
		s.uniqueData += uint64(s.SegmentSize)
		s.transmit(seq, 0)
	}
}

// transmit sends one segment copy and arms its timer.
func (s *Sender) transmit(seq uint64, retries int) {
	pkt := &netem.Packet{
		ID:   s.IDs.Next(),
		Flow: s.Flow, IMSI: s.IMSI, QCI: s.QCI, Dir: s.Dir,
		Size: s.SegmentSize,
		Sent: s.Sched.Now(),
	}
	s.sentData += uint64(s.SegmentSize)
	if retries > 0 {
		s.rtxData += uint64(s.SegmentSize)
		if seq < s.ackedTo {
			s.spurious += uint64(s.SegmentSize)
		}
	}
	fl := &flight{retries: retries}
	rto := s.RTO
	if s.BackoffFactor > 1 {
		for i := 0; i < retries; i++ {
			rto = time.Duration(float64(rto) * s.BackoffFactor)
		}
	}
	fl.timer = s.Sched.After(rto, func() {
		s.onTimeout(seq)
	})
	s.inFlight[seq] = fl
	// Tag the packet with its sequence via the Seq field.
	pkt.Seq = seq
	s.Dst.Recv(pkt)
}

func (s *Sender) onTimeout(seq uint64) {
	fl, ok := s.inFlight[seq]
	if !ok {
		return
	}
	if seq < s.ackedTo {
		delete(s.inFlight, seq)
		return
	}
	if fl.retries >= s.MaxRetries {
		// Give up on the segment: advance as if acked so the
		// transfer cannot wedge (the application's loss tolerance).
		delete(s.inFlight, seq)
		s.maybeAdvance()
		return
	}
	s.transmit(seq, fl.retries+1)
}

// Ack delivers a cumulative acknowledgement (invoked by the Receiver
// after the reverse-path delay).
func (s *Sender) Ack(cumSeq uint64) {
	if cumSeq <= s.ackedTo {
		return
	}
	for seq := s.ackedTo; seq < cumSeq; seq++ {
		if fl, ok := s.inFlight[seq]; ok {
			s.Sched.Cancel(fl.timer)
			delete(s.inFlight, seq)
		}
	}
	s.ackedTo = cumSeq
	s.maybeAdvance()
}

func (s *Sender) maybeAdvance() {
	s.pump()
	if s.ackedTo >= s.toSend && s.done != nil {
		done := s.done
		s.done = nil
		done()
	}
}

// Stats returns (bytes sent incl. retransmissions, unique bytes,
// retransmitted bytes, spurious retransmitted bytes).
func (s *Sender) Stats() (sent, unique, rtx, spurious uint64) {
	return s.sentData, s.uniqueData, s.rtxData, s.spurious
}

// Receiver is the reliable receiving endpoint: it tracks the highest
// in-order sequence, counts distinct delivered bytes once, and sends
// cumulative ACKs back to the sender.
type Receiver struct {
	Sched  *sim.Scheduler
	Sender *Sender

	received map[uint64]bool
	cum      uint64
	unique   uint64 // distinct payload bytes delivered
}

// NewReceiver builds the receiving endpoint bound to its sender.
func NewReceiver(sched *sim.Scheduler, sender *Sender) *Receiver {
	return &Receiver{Sched: sched, Sender: sender, received: map[uint64]bool{}}
}

// Recv implements netem.Node.
func (r *Receiver) Recv(p *netem.Packet) {
	// A duplicate (already received, or below the cumulative ack) is
	// discarded: the gateway charged it, the application never sees it.
	if seq := p.Seq; !r.received[seq] && seq >= r.cum {
		r.received[seq] = true
		r.unique += uint64(p.Size)
		for r.received[r.cum] {
			delete(r.received, r.cum)
			r.cum++
		}
	}
	cum := r.cum
	r.Sched.After(r.Sender.ReverseDelay, func() {
		r.Sender.Ack(cum)
	})
}

// UniqueBytes returns distinct payload bytes delivered (what the edge
// application actually received).
func (r *Receiver) UniqueBytes() uint64 { return r.unique }
