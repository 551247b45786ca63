package transport

import (
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// path builds sender -> (lossy delay link) -> receiver.
func path(t *testing.T, lossP float64, delay time.Duration, rto time.Duration) (*sim.Scheduler, *Sender, *Receiver, *netem.Link) {
	t.Helper()
	s := sim.NewScheduler()
	ids := &netem.IDGen{}
	snd := NewSender(s, ids, nil, "flow", "imsi1")
	if rto > 0 {
		snd.RTO = rto
	}
	rcv := NewReceiver(s, snd)
	link := netem.NewLink("path", s, 100e6, delay, 1<<20, rcv)
	if lossP > 0 {
		link.Loss = &netem.BernoulliLoss{P: lossP, RNG: sim.NewRNG(9)}
	}
	snd.Dst = link
	return s, snd, rcv, link
}

func TestLosslessTransferDeliversEverythingOnce(t *testing.T) {
	s, snd, rcv, _ := path(t, 0, 5*time.Millisecond, 0)
	finished := false
	snd.Transfer(100, func() { finished = true })
	s.RunUntil(30 * time.Second)
	if !finished {
		t.Fatal("transfer did not complete")
	}
	if rcv.UniqueBytes() != 100*1400 {
		t.Fatalf("unique bytes = %d", rcv.UniqueBytes())
	}
	sent, unique, rtx, spurious := snd.Stats()
	if sent != unique || rtx != 0 || spurious != 0 {
		t.Fatalf("stats = %d/%d/%d/%d", sent, unique, rtx, spurious)
	}
	if acked := snd.ackedTo * uint64(snd.SegmentSize); acked != 100*1400 {
		t.Fatalf("acked = %d", acked)
	}
}

func TestLossyTransferRecovers(t *testing.T) {
	s, snd, rcv, _ := path(t, 0.2, 5*time.Millisecond, 0)
	finished := false
	snd.Transfer(200, func() { finished = true })
	s.RunUntil(5 * time.Minute)
	if !finished {
		t.Fatal("transfer did not complete over a 20% lossy path")
	}
	if rcv.UniqueBytes() != 200*1400 {
		t.Fatalf("unique bytes = %d, want full transfer", rcv.UniqueBytes())
	}
	_, _, rtx, _ := snd.Stats()
	if rtx == 0 {
		t.Fatal("no retransmissions despite 20% loss")
	}
}

func TestSpuriousRetransmissionOverCharges(t *testing.T) {
	// §3.1 cause (4): an RTO shorter than the path RTT retransmits
	// segments whose originals (or ACKs) were merely slow. The
	// network carries — and the gateway would charge — more bytes
	// than the receiver's distinct payload.
	s, snd, rcv, link := path(t, 0, 80*time.Millisecond, 100*time.Millisecond)
	// RTT = 80ms forward + 10ms reverse = 90ms; RTO 100ms with any
	// queueing jitter fires spuriously. Tighten further:
	snd.RTO = 60 * time.Millisecond
	finished := false
	snd.Transfer(300, func() { finished = true })
	s.RunUntil(2 * time.Minute)
	if !finished {
		t.Fatal("transfer did not complete")
	}
	sent, unique, rtx, _ := snd.Stats()
	if rtx == 0 {
		t.Fatal("no spurious retransmissions with RTO < RTT")
	}
	if sent <= unique {
		t.Fatal("sent volume not inflated")
	}
	// The metering point (the link) carried every copy...
	if link.Stats.InBytes != sent {
		t.Fatalf("link carried %d, sender sent %d", link.Stats.InBytes, sent)
	}
	// ...but the application received each byte once: the charging
	// gap is exactly the duplicate volume.
	if rcv.UniqueBytes() != unique {
		t.Fatalf("unique delivered = %d, want %d", rcv.UniqueBytes(), unique)
	}
	overCharge := float64(sent-unique) / float64(unique)
	if overCharge < 0.05 {
		t.Fatalf("over-charge ratio = %.3f, expected a visible gap", overCharge)
	}
}

func TestProperRTOAvoidsSpuriousRetransmission(t *testing.T) {
	s, snd, rcv, _ := path(t, 0, 80*time.Millisecond, 500*time.Millisecond)
	finished := false
	snd.Transfer(300, func() { finished = true })
	s.RunUntil(2 * time.Minute)
	if !finished {
		t.Fatal("transfer did not complete")
	}
	_, _, rtx, _ := snd.Stats()
	if rtx != 0 {
		t.Fatalf("retransmitted %d bytes on a clean path with RTO >> RTT", rtx)
	}
	if rcv.UniqueBytes() != 300*1400 {
		t.Fatalf("unique delivered = %d, want every byte once", rcv.UniqueBytes())
	}
}

func TestMaxRetriesPreventsWedging(t *testing.T) {
	// A fully black-holed path: the transfer must still complete
	// (the application tolerates loss) after exhausting retries.
	s := sim.NewScheduler()
	ids := &netem.IDGen{}
	snd := NewSender(s, ids, netem.NodeFunc(func(*netem.Packet) {}), "f", "i")
	snd.MaxRetries = 2
	snd.RTO = 50 * time.Millisecond
	finished := false
	snd.Transfer(10, func() { finished = true })
	s.RunUntil(time.Minute)
	if finished {
		// With every segment black-holed nothing is ever acked, so
		// done (which requires acks) must NOT fire...
		t.Fatal("transfer claimed completion on a black hole")
	}
	// ...but the sender must have stopped retransmitting.
	sentBefore, _, _, _ := snd.Stats()
	s.RunUntil(2 * time.Minute)
	sentAfter, _, _, _ := snd.Stats()
	if sentAfter != sentBefore {
		t.Fatalf("sender still transmitting after max retries: %d -> %d", sentBefore, sentAfter)
	}
}

func TestWindowLimitsInFlight(t *testing.T) {
	s := sim.NewScheduler()
	ids := &netem.IDGen{}
	var got int
	snd := NewSender(s, ids, netem.NodeFunc(func(*netem.Packet) { got++ }), "f", "i")
	snd.Window = 8
	snd.RTO = time.Hour // no retransmissions
	snd.Transfer(100, nil)
	s.RunUntil(time.Second)
	if got != 8 {
		t.Fatalf("initial burst = %d, want window of 8", got)
	}
}
