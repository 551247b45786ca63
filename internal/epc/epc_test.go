package epc

import (
	"testing"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

func TestHSSRegisterLookup(t *testing.T) {
	h := NewHSS()
	h.Register(&Subscriber{IMSI: "001011132547648", DefaultQCI: 9})
	if len(h.subs) != 1 {
		t.Fatalf("%d subscribers, want 1", len(h.subs))
	}
	s, ok := h.subs["001011132547648"]
	if !ok || s.DefaultQCI != 9 {
		t.Fatalf("lookup = %+v, %v", s, ok)
	}
	if _, ok := h.subs["nope"]; ok {
		t.Fatal("lookup of unknown IMSI succeeded")
	}
}

func TestPCRFPolicy(t *testing.T) {
	p := NewPCRF()
	if p.QCIFor("anything") != 9 {
		t.Fatal("default QCI not 9")
	}
	p.Install(PolicyRule{Flow: "game", QCI: 7})
	if p.QCIFor("game") != 7 {
		t.Fatal("dedicated bearer rule not applied")
	}
	if p.QCIFor("webcam") != 9 {
		t.Fatal("rule leaked onto other flows")
	}
}

func TestMMEAttachDetach(t *testing.T) {
	m := NewMME()
	sess := m.Attach("imsi1")
	if !m.Attached("imsi1") || sess.Attaches != 1 {
		t.Fatalf("attach: %+v", sess)
	}
	// Re-attach while attached is a no-op.
	m.Attach("imsi1")
	if sess.Attaches != 1 {
		t.Fatal("double attach counted twice")
	}
	m.Detach("imsi1")
	if m.Attached("imsi1") || sess.Detaches != 1 {
		t.Fatal("detach failed")
	}
	m.Detach("imsi1") // idempotent
	if sess.Detaches != 1 {
		t.Fatal("double detach counted twice")
	}
	m.Attach("imsi1")
	if !m.Attached("imsi1") || sess.Attaches != 2 {
		t.Fatal("re-attach failed")
	}
	m.Detach("unknown") // must not panic
	if _, ok := m.sessions["unknown"]; ok {
		t.Fatal("phantom session created by detach")
	}
}

func TestFormatIMSITrace(t *testing.T) {
	// The paper's Trace 1 shows IMSI 001011132547648F5 rendered as
	// nibble-swapped byte pairs. Verify the transform on a simple
	// case: "001" pads to "001F" -> "00 F1".
	if got := FormatIMSITrace("001"); got != "00 F1" {
		t.Fatalf("FormatIMSITrace(001) = %q", got)
	}
	if got := FormatIMSITrace("1234"); got != "21 43" {
		t.Fatalf("FormatIMSITrace(1234) = %q", got)
	}
}

func buildGW(t *testing.T) (*sim.Scheduler, *SPGW, *MME, *netem.Sink, *netem.Sink) {
	t.Helper()
	s := sim.NewScheduler()
	mme := NewMME()
	pcrf := NewPCRF()
	pcrf.Install(PolicyRule{Flow: "game", QCI: 7})
	gw := NewSPGW(s, mme, pcrf)
	ulSink, dlSink := &netem.Sink{}, &netem.Sink{}
	gw.ULNext, gw.DLNext = ulSink, dlSink
	return s, gw, mme, ulSink, dlSink
}

func TestSPGWMetersAndForwards(t *testing.T) {
	s, gw, mme, ulSink, dlSink := buildGW(t)
	mme.Attach("imsi1")
	ul, dl := gw.ULNode(), gw.DLNode()
	s.At(0, func() {
		ul.Recv(&netem.Packet{IMSI: "imsi1", Flow: "webcam", Size: 100, Dir: netem.Uplink})
		dl.Recv(&netem.Packet{IMSI: "imsi1", Flow: "webcam", Size: 200, Dir: netem.Downlink})
	})
	s.RunUntil(time.Second)
	if gw.session("imsi1").ulMeter.TotalBytes() != 100 || gw.session("imsi1").dlMeter.TotalBytes() != 200 {
		t.Fatalf("metered = %d/%d", gw.session("imsi1").ulMeter.TotalBytes(), gw.session("imsi1").dlMeter.TotalBytes())
	}
	if ulSink.Packets != 1 || dlSink.Packets != 1 {
		t.Fatal("forwarding failed")
	}
}

func TestSPGWStampsQCI(t *testing.T) {
	s, gw, mme, _, _ := buildGW(t)
	mme.Attach("imsi1")
	var got uint8
	gw.DLNext = netem.NodeFunc(func(p *netem.Packet) { got = p.QCI })
	dl := gw.DLNode()
	s.At(0, func() {
		dl.Recv(&netem.Packet{IMSI: "imsi1", Flow: "game", Size: 10})
	})
	s.RunUntil(time.Millisecond)
	if got != 7 {
		t.Fatalf("QCI = %d, want 7 (PCRF dedicated bearer)", got)
	}
}

func TestSPGWDropsDetachedDownlinkUncharged(t *testing.T) {
	s, gw, mme, _, dlSink := buildGW(t)
	mme.Attach("imsi1")
	mme.Detach("imsi1")
	dl := gw.DLNode()
	s.At(0, func() {
		dl.Recv(&netem.Packet{IMSI: "imsi1", Flow: "webcam", Size: 500})
	})
	s.RunUntil(time.Millisecond)
	if gw.session("imsi1").dlMeter.TotalBytes() != 0 {
		t.Fatal("detached traffic was charged")
	}
	if dlSink.Packets != 0 {
		t.Fatal("detached traffic was forwarded")
	}
	pkts, bytes := gw.DroppedDetached("imsi1")
	if pkts != 1 || bytes != 500 {
		t.Fatalf("dropped-detached = %d/%d", pkts, bytes)
	}
}

func TestSPGWIgnoresBackgroundTraffic(t *testing.T) {
	s, gw, mme, ulSink, _ := buildGW(t)
	mme.Attach("imsi1")
	ul := gw.ULNode()
	s.At(0, func() {
		ul.Recv(&netem.Packet{IMSI: "imsi1", Flow: "bg", Size: 999, Background: true})
	})
	s.RunUntil(time.Millisecond)
	if gw.session("imsi1").ulMeter.TotalBytes() != 0 {
		t.Fatal("background traffic was metered")
	}
	if ulSink.Packets != 1 {
		t.Fatal("background traffic not forwarded")
	}
}

func TestSPGWUsageInWindow(t *testing.T) {
	s, gw, mme, _, _ := buildGW(t)
	mme.Attach("imsi1")
	ul := gw.ULNode()
	s.At(500*time.Millisecond, func() { ul.Recv(&netem.Packet{IMSI: "imsi1", Size: 100}) })
	s.At(1500*time.Millisecond, func() { ul.Recv(&netem.Packet{IMSI: "imsi1", Size: 300}) })
	s.RunUntil(2 * time.Second)
	gotUL, _ := gw.UsageInWindow("imsi1", 0, time.Second)
	if gotUL != 100 {
		t.Fatalf("window UL = %v, want 100", gotUL)
	}
	gotUL, _ = gw.UsageInWindow("imsi1", 0, 2*time.Second)
	if gotUL != 400 {
		t.Fatalf("full-window UL = %v, want 400", gotUL)
	}
}

func TestSPGWEmitsCDRsToOFCS(t *testing.T) {
	s, gw, mme, _, _ := buildGW(t)
	mme.Attach("imsi1")
	ofcs := NewOFCS()
	gw.OFCS = ofcs
	gw.CDRInterval = time.Second
	gw.Start()
	ul := gw.ULNode()
	// Two seconds of traffic, then silence: CDRs only when usage
	// changed.
	s.At(100*time.Millisecond, func() { ul.Recv(&netem.Packet{IMSI: "imsi1", Size: 100}) })
	s.At(1100*time.Millisecond, func() { ul.Recv(&netem.Packet{IMSI: "imsi1", Size: 200}) })
	s.RunUntil(10 * time.Second)
	if ofcs.Records() != 2 {
		t.Fatalf("CDRs = %d, want 2 (silent periods emit nothing)", ofcs.Records())
	}
	u, ok := ofcs.usage[FormatIMSITrace("imsi1")]
	if !ok || u.UL != 300 || u.DL != 0 {
		t.Fatalf("OFCS usage = %+v", u)
	}
	cdrs := ofcs.cdrs
	if cdrs[0].SequenceNumber != 0 || cdrs[1].SequenceNumber != 1 {
		t.Fatal("CDR sequence numbers not monotonic")
	}
}

func TestOFCSAggregation(t *testing.T) {
	ofcs := NewOFCS()
	ofcs.CollectAt(&CDR{ServedIMSI: "A", DataVolumeUplink: 10, DataVolumeDownlink: 20}, 0)
	ofcs.CollectAt(&CDR{ServedIMSI: "B", DataVolumeDownlink: 5}, 0)
	ofcs.CollectAt(&CDR{ServedIMSI: "A", DataVolumeUplink: 1}, 0)
	var total uint64
	for _, u := range ofcs.usage {
		total += u.UL + u.DL
	}
	if total != 36 || len(ofcs.usage) != 2 || ofcs.usage["B"] == nil {
		t.Fatalf("total %d over subscribers %v, want 36 over A and B", total, ofcs.usage)
	}
	a, _ := ofcs.usage["A"]
	if a.Records != 2 || a.UL+a.DL != 31 {
		t.Fatalf("usage A = %+v", a)
	}
}
