package ran

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// TraceRSS replays an explicit step function of (time, rss) samples:
// the RSS model these tests script radio conditions with.
type TraceRSS struct {
	Times  []sim.Time
	Values []float64
}

// RSS implements RSSModel. Before the first sample it returns the
// first value; afterwards the most recent sample applies.
func (t *TraceRSS) RSS(now sim.Time) float64 {
	if len(t.Times) == 0 {
		return 0
	}
	i := sort.Search(len(t.Times), func(i int) bool { return t.Times[i] > now })
	if i == 0 {
		return t.Values[0]
	}
	return t.Values[i-1]
}

func TestConstantRSS(t *testing.T) {
	m := ConstantRSS(-90)
	if m.RSS(0) != -90 || m.RSS(time.Hour) != -90 {
		t.Fatal("constant RSS not constant")
	}
}

func TestOutageRSSSchedule(t *testing.T) {
	rng := sim.NewRNG(1)
	o := NewOutageRSS(-90, -125, 10*time.Second, 2*time.Second, 5*time.Minute, rng)
	if len(o.outages) == 0 {
		t.Fatal("no outages generated")
	}
	prevEnd := sim.Time(-1)
	for _, iv := range o.outages {
		if iv.Start <= prevEnd {
			t.Fatalf("overlapping or unordered outage %+v after %v", iv, prevEnd)
		}
		if iv.End <= iv.Start {
			t.Fatalf("empty outage %+v", iv)
		}
		if iv.End > 5*time.Minute {
			t.Fatalf("outage beyond horizon: %+v", iv)
		}
		prevEnd = iv.End
	}
}

func TestOutageRSSValues(t *testing.T) {
	rng := sim.NewRNG(2)
	o := NewOutageRSS(-90, -125, 5*time.Second, time.Second, time.Minute, rng)
	outs := o.outages
	if len(outs) == 0 {
		t.Skip("no outages with this seed")
	}
	iv := outs[0]
	mid := iv.Start + (iv.End-iv.Start)/2
	if o.RSS(mid) != -125 {
		t.Fatalf("RSS inside outage = %v", o.RSS(mid))
	}
	if iv.Start > 0 && o.RSS(iv.Start-time.Millisecond) != -90 {
		t.Fatalf("RSS before outage = %v", o.RSS(iv.Start-time.Millisecond))
	}
	if o.RSS(iv.End) != -90 && !outs[1].Contains(iv.End) {
		t.Fatalf("RSS at outage end = %v", o.RSS(iv.End))
	}
}

func TestOutageRSSNoOutagesConfigured(t *testing.T) {
	o := NewOutageRSS(-90, -125, 0, 0, time.Minute, sim.NewRNG(1))
	if len(o.outages) != 0 || o.RSS(time.Second) != -90 {
		t.Fatal("zero-mean outage model generated outages")
	}
}

func TestTraceRSS(t *testing.T) {
	tr := &TraceRSS{
		Times:  []sim.Time{0, 10 * time.Second, 20 * time.Second},
		Values: []float64{-90, -110, -95},
	}
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, -90}, {5 * time.Second, -90}, {10 * time.Second, -110},
		{15 * time.Second, -110}, {25 * time.Second, -95},
	}
	for _, c := range cases {
		if got := tr.RSS(c.at); got != c.want {
			t.Errorf("RSS(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	empty := &TraceRSS{}
	if empty.RSS(0) != 0 {
		t.Fatal("empty trace RSS not 0")
	}
}

func TestLossProb(t *testing.T) {
	if got := LossProb(-80, 0.05); got != 0.05 {
		t.Fatalf("good radio loss = %v, want residual", got)
	}
	if got := LossProb(-125, 0.05); got != 1 {
		t.Fatalf("no-service loss = %v, want 1", got)
	}
	// HARQ recovers weak-but-usable signal: loss stays residual.
	if got := LossProb(-110, 0.05); got != 0.05 {
		t.Fatalf("weak-signal loss = %v, want residual (HARQ)", got)
	}
}

func TestMCSFactor(t *testing.T) {
	if MCSFactor(-80) != 1 || MCSFactor(-95) != 1 {
		t.Fatal("good radio must serve full rate")
	}
	if MCSFactor(-125) != 0 || MCSFactor(-120) != 0 {
		t.Fatal("no-service must serve zero rate")
	}
	mid := MCSFactor(-110)
	if mid <= 0 || mid >= 0.2 {
		t.Fatalf("cell-edge MCS factor = %v, want small positive", mid)
	}
}

func TestMCSFactorMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		// Map to the interesting RSS range [-130, -80].
		ra := -130 + float64(a%50)
		rb := -130 + float64(b%50)
		if ra > rb {
			ra, rb = rb, ra
		}
		// Weaker signal (more negative) must not serve faster.
		return MCSFactor(ra) <= MCSFactor(rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAirLinkRateAdaptsToWeakSignal(t *testing.T) {
	// The same stream that fits in good radio overflows the eNodeB
	// buffer at the cell edge: the gap source moves from "loss on
	// the wire" to post-meter queue overflow, matching LTE MCS
	// behaviour.
	run := func(rss float64) (delivered, drops uint64) {
		s := sim.NewScheduler()
		r := NewRadio(s, ConstantRSS(rss))
		r.Start()
		sink := &netem.Sink{}
		l := NewAirLink(AirLinkConfig{Name: "dl", RateBps: 100e6, QueueBytes: 64 << 10},
			s, r, sink, sim.NewRNG(6))
		src := &netem.TrafficSource{
			Sched: s, IDs: &netem.IDGen{}, Dst: l,
			Flow: "f", RateBps: 5e6, PacketSize: 1400,
		}
		src.Start(0)
		s.RunUntil(10 * time.Second)
		src.Stop()
		return sink.Packets, l.Stats.QueueDrops
	}
	goodDelivered, goodDrops := run(-90)
	edgeDelivered, edgeDrops := run(-113)
	if goodDrops != 0 {
		t.Fatalf("good radio dropped %d packets", goodDrops)
	}
	if edgeDrops == 0 {
		t.Fatal("cell edge did not overflow the buffer")
	}
	if edgeDelivered >= goodDelivered {
		t.Fatalf("cell edge delivered %d >= good radio %d", edgeDelivered, goodDelivered)
	}
}

func TestRadioDetachAfterPersistentOutage(t *testing.T) {
	s := sim.NewScheduler()
	// Out of coverage from t=10s to t=30s: longer than DetachAfter.
	model := &TraceRSS{
		Times:  []sim.Time{0, 10 * time.Second, 30 * time.Second},
		Values: []float64{-90, -125, -90},
	}
	r := NewRadio(s, model)
	var detachedAt, attachedAt sim.Time
	r.OnDetach = func(now sim.Time) { detachedAt = now }
	r.OnAttach = func(now sim.Time) { attachedAt = now }
	r.Start()
	s.RunUntil(40 * time.Second)
	if detachedAt < 15*time.Second-100*time.Millisecond || detachedAt > 15*time.Second+200*time.Millisecond {
		t.Fatalf("detached at %v, want ~15s (outage start + 5s)", detachedAt)
	}
	if attachedAt < 30*time.Second || attachedAt > 31*time.Second {
		t.Fatalf("re-attached at %v, want shortly after 30s", attachedAt)
	}
	if r.state != Attached {
		t.Fatal("radio not re-attached")
	}
}

func TestRadioShortOutageDoesNotDetach(t *testing.T) {
	s := sim.NewScheduler()
	// 2s outage: below the 5s RLF timer.
	model := &TraceRSS{
		Times:  []sim.Time{0, 10 * time.Second, 12 * time.Second},
		Values: []float64{-90, -125, -90},
	}
	r := NewRadio(s, model)
	detached := false
	r.OnDetach = func(sim.Time) { detached = true }
	r.Start()
	s.RunUntil(20 * time.Second)
	if detached {
		t.Fatal("short outage caused detach")
	}
	if r.state != Attached {
		t.Fatal("radio not attached after short outage")
	}
}

func TestRadioOutOfServiceTime(t *testing.T) {
	s := sim.NewScheduler()
	model := &TraceRSS{
		Times:  []sim.Time{0, 10 * time.Second, 12 * time.Second},
		Values: []float64{-90, -125, -90},
	}
	r := NewRadio(s, model)
	r.Start()
	s.RunUntil(20 * time.Second)
	oos := r.OutOfServiceTime()
	if oos < 1800*time.Millisecond || oos > 2200*time.Millisecond {
		t.Fatalf("OutOfServiceTime = %v, want ~2s", oos)
	}
}

func TestRadioAvailability(t *testing.T) {
	s := sim.NewScheduler()
	model := &TraceRSS{
		Times:  []sim.Time{0, 10 * time.Second, 11 * time.Second},
		Values: []float64{-90, -125, -90},
	}
	r := NewRadio(s, model)
	r.Start()
	s.RunUntil(10500 * time.Millisecond)
	if r.Available(s.Now()) {
		t.Fatal("available during outage")
	}
	s.RunUntil(12 * time.Second)
	if !r.Available(s.Now()) {
		t.Fatal("not available after outage")
	}
}

type fakeModem struct{ ul, dl uint64 }

func (m *fakeModem) CounterSnapshot() (uint64, uint64) { return m.ul, m.dl }

func TestBaseStationInactivityReleaseAndCounterCheck(t *testing.T) {
	s := sim.NewScheduler()
	r := NewRadio(s, ConstantRSS(-90))
	r.Start()
	modem := &fakeModem{ul: 111, dl: 222}
	bs := NewBaseStation(s, r, modem)
	bs.InactivityRelease = 5 * time.Second
	var recs []CounterCheckRecord
	bs.OnCounterCheck = func(rec CounterCheckRecord) { recs = append(recs, rec) }
	bs.Start()
	s.At(time.Second, func() { bs.NotifyActivity(s.Now()) })
	s.RunUntil(20 * time.Second)
	if bs.rrcConnected {
		t.Fatal("connection not released after inactivity")
	}
	if bs.Releases() != 1 {
		t.Fatalf("releases=%d, want 1", bs.Releases())
	}
	if len(recs) != 1 || recs[0].UL != 111 || recs[0].DL != 222 {
		t.Fatalf("counter check records = %+v", recs)
	}
	// The release happens ~6s after the activity (inactivity timer)
	// and the check response is delayed by CheckRTT.
	if recs[0].At < 6*time.Second || recs[0].At > 8*time.Second {
		t.Fatalf("counter check at %v", recs[0].At)
	}
}

func TestBaseStationActivityKeepsConnection(t *testing.T) {
	s := sim.NewScheduler()
	r := NewRadio(s, ConstantRSS(-90))
	r.Start()
	bs := NewBaseStation(s, r, &fakeModem{})
	bs.InactivityRelease = 5 * time.Second
	bs.Start()
	// Activity every 2 seconds: the connection should never release.
	s.Ticker(0, 2*time.Second, func(now sim.Time) { bs.NotifyActivity(now) })
	s.RunUntil(30 * time.Second)
	if !bs.rrcConnected || bs.Releases() != 0 {
		t.Fatalf("connected=%v releases=%d", bs.rrcConnected, bs.Releases())
	}
}

func TestCounterCheckLostWhenRadioUnavailable(t *testing.T) {
	s := sim.NewScheduler()
	model := &TraceRSS{
		Times:  []sim.Time{0, 5 * time.Second},
		Values: []float64{-90, -125},
	}
	r := NewRadio(s, model)
	r.Start()
	bs := NewBaseStation(s, r, &fakeModem{})
	got := 0
	bs.OnCounterCheck = func(CounterCheckRecord) { got++ }
	bs.Start()
	// Trigger during outage: not even sent.
	s.At(6*time.Second, func() { bs.TriggerCounterCheck() })
	s.RunUntil(10 * time.Second)
	sent, answered := bs.CounterChecks()
	if sent != 0 || answered != 0 || got != 0 {
		t.Fatalf("check during outage: sent=%d answered=%d cb=%d", sent, answered, got)
	}
	// Trigger in coverage: completes.
	s2 := sim.NewScheduler()
	r2 := NewRadio(s2, ConstantRSS(-90))
	r2.Start()
	bs2 := NewBaseStation(s2, r2, &fakeModem{ul: 1, dl: 2})
	got2 := 0
	bs2.OnCounterCheck = func(CounterCheckRecord) { got2++ }
	s2.At(time.Second, func() { bs2.TriggerCounterCheck() })
	s2.RunUntil(2 * time.Second)
	if got2 != 1 {
		t.Fatalf("check in coverage not answered: %d", got2)
	}
}

func TestAirLinkDropsEverythingInOutage(t *testing.T) {
	s := sim.NewScheduler()
	model := &TraceRSS{
		Times:  []sim.Time{0, time.Second},
		Values: []float64{-90, -125},
	}
	r := NewRadio(s, model)
	r.Start()
	sink := &netem.Sink{}
	rng := sim.NewRNG(3)
	// Small queue so gating overflow drops occur.
	l := NewAirLink(AirLinkConfig{Name: "dl", RateBps: 10e6, QueueBytes: 3000}, s, r, sink, rng)
	ids := &netem.IDGen{}
	src := &netem.TrafficSource{Sched: s, IDs: ids, Dst: l, Flow: "f", RateBps: 5e6, PacketSize: 1000}
	src.Start(0)
	s.RunUntil(3 * time.Second)
	src.Stop()
	s.RunUntil(4 * time.Second)
	// During the outage (1s..) the gate holds packets; the 3000-byte
	// queue overflows and drops the rest.
	if l.Stats.QueueDrops == 0 {
		t.Fatal("no queue drops during outage buffering")
	}
	if sink.Packets == 0 {
		t.Fatal("nothing delivered before outage")
	}
}

func TestAirLinkBuffersAcrossShortOutage(t *testing.T) {
	s := sim.NewScheduler()
	model := &TraceRSS{
		Times:  []sim.Time{0, time.Second, 1500 * time.Millisecond},
		Values: []float64{-90, -125, -90},
	}
	r := NewRadio(s, model)
	r.Start()
	var lastArrival sim.Time
	count := 0
	sink := netem.NodeFunc(func(p *netem.Packet) { count++; lastArrival = s.Now() })
	rng := sim.NewRNG(4)
	l := NewAirLink(AirLinkConfig{Name: "dl", RateBps: 10e6, QueueBytes: 1 << 20}, s, r, sink, rng)
	ids := &netem.IDGen{}
	// One packet sent during the outage: buffered, delivered after.
	s.At(1200*time.Millisecond, func() {
		l.Recv(&netem.Packet{ID: ids.Next(), Flow: "f", Size: 1000, QCI: 9})
	})
	s.RunUntil(3 * time.Second)
	if count != 1 {
		t.Fatalf("delivered %d, want 1 (buffered across outage)", count)
	}
	if lastArrival < 1500*time.Millisecond {
		t.Fatalf("delivered at %v, during outage", lastArrival)
	}
}

func TestAirLinkResidualLossInGoodRadio(t *testing.T) {
	s := sim.NewScheduler()
	r := NewRadio(s, ConstantRSS(-90))
	r.Start()
	sink := &netem.Sink{}
	rng := sim.NewRNG(5)
	l := NewAirLink(AirLinkConfig{Name: "dl", RateBps: 100e6, QueueBytes: 1 << 20, ResidualLoss: 0.1}, s, r, sink, rng)
	ids := &netem.IDGen{}
	src := &netem.TrafficSource{Sched: s, IDs: ids, Dst: l, Flow: "f", RateBps: 10e6, PacketSize: 1000}
	src.Start(0)
	s.RunUntil(10 * time.Second)
	src.Stop()
	s.RunUntil(11 * time.Second)
	lossRate := float64(l.Stats.LossDrops) / float64(l.Stats.InPackets)
	if lossRate < 0.07 || lossRate > 0.13 {
		t.Fatalf("residual loss rate = %v, want ~0.1", lossRate)
	}
}
