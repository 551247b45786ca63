package netem

import (
	"runtime"
	"testing"
	"time"

	"tlc/internal/sim"
)

// passInject is a FaultInjector that never faults. A link with an
// injector never holds a transmission, so a link with passInject runs
// every completion as an event, as links did before holds existed.
type passInject struct{}

func (passInject) Apply(*Packet, sim.Time) FaultAction { return FaultAction{} }

// heldTwin is one of two identical links fed the same packets; the
// twin with completions holds its idle transmissions, the other fires
// an event for every completion.
type heldTwin struct {
	s        *sim.Scheduler
	l        *Link
	arrivals []arrival // every packet Dst received
}

func newHeldTwin(events bool, loss float64, feed func(tw *heldTwin)) *heldTwin {
	tw := &heldTwin{s: sim.NewScheduler()}
	pool := &PacketPool{}
	dst := NodeFunc(func(p *Packet) {
		tw.arrivals = append(tw.arrivals, arrival{p.ID, tw.s.Now()})
		pool.Put(p)
	})
	// 10 Mb/s: a 100-byte step in size is 80 µs of transmission, the
	// feed's time grid, so arrivals often land exactly on a completion.
	tw.l = NewLink("held", tw.s, 10e6, time.Millisecond, 6000, dst)
	tw.l.Pool = pool
	tw.l.Loss = &BernoulliLoss{P: loss, RNG: sim.NewRNG(11)}
	tw.l.BackgroundEnds = true
	if events {
		tw.l.Inject = passInject{}
	}
	feed(tw)
	return tw
}

// recvAt schedules the arrival of one packet at the given instant.
func (tw *heldTwin) recvAt(at sim.Time, id uint64, size int, qci uint8, background bool) {
	tw.s.AtPooled(at, func() {
		p := tw.l.Pool.Get()
		p.ID, p.Size, p.QCI, p.Background = id, size, qci, background
		tw.l.Recv(p)
	})
}

// compareHeldTwins requires the two links to read alike between
// events: the same counters, wire, backlog and fired count, and the
// same packets received at the same instants.
func compareHeldTwins(t *testing.T, when string, ev, held *heldTwin) {
	t.Helper()
	ev.l.Settle()
	held.l.Settle()
	if ev.l.Stats != held.l.Stats {
		t.Errorf("%s: stats differ:\nevents %+v\nheld   %+v", when, ev.l.Stats, held.l.Stats)
	}
	if ev.l.qciEnq != held.l.qciEnq || ev.l.qciDrop != held.l.qciDrop || ev.l.qciOut != held.l.qciOut {
		t.Errorf("%s: per-QCI counters differ", when)
	}
	if a, b := ev.l.InFlight(), held.l.InFlight(); a != b {
		t.Errorf("%s: InFlight = %d held, %d with events", when, b, a)
	}
	if a, b := ev.l.Backlog(), held.l.Backlog(); a != b {
		t.Errorf("%s: Backlog = %d held, %d with events", when, b, a)
	}
	if a, b := ev.s.Fired(), held.s.Fired(); a != b {
		t.Errorf("%s: Fired = %d held, %d with events", when, b, a)
	}
	if a, b := ev.s.Now(), held.s.Now(); a != b {
		t.Errorf("%s: Now = %v held, %v with events", when, b, a)
	}
	if len(ev.arrivals) != len(held.arrivals) {
		t.Fatalf("%s: Dst received %d packets held, %d with events", when, len(held.arrivals), len(ev.arrivals))
	}
	for i := range ev.arrivals {
		if ev.arrivals[i] != held.arrivals[i] {
			t.Fatalf("%s: arrival %d: %+v held, %+v with events", when, i, held.arrivals[i], ev.arrivals[i])
		}
	}
}

// TestHeldTransmissionsMatchCompletionEvents feeds twin links the same
// packets on the transmission time grid, half scheduled up front (seqs
// below any hold's) and half chained from the previous arrival (seqs
// that fall on either side of a hold's), with loss, background ending,
// two classes and queue overflow, and compares them at every 70 µs.
func TestHeldTransmissionsMatchCompletionEvents(t *testing.T) {
	feed := func(tw *heldTwin) {
		rng := sim.NewRNG(3)
		at := sim.Time(0)
		for i := 0; i < 400; i++ {
			at += sim.Time(rng.Intn(20)) * 80 * time.Microsecond
			tw.recvAt(at, uint64(i+1), 100*(1+rng.Intn(15)), uint8(7+2*rng.Intn(2)), rng.Intn(3) == 0)
		}
		var chain func(i int, at sim.Time)
		chain = func(i int, at sim.Time) {
			tw.s.AtPooled(at, func() {
				p := tw.l.Pool.Get()
				p.ID, p.Size, p.QCI = uint64(1000+i), 100*(1+(i*7)%15), 9
				tw.l.Recv(p)
				if i < 400 {
					chain(i+1, at+sim.Time(1+(i*13)%17)*80*time.Microsecond)
				}
			})
		}
		chain(0, 40*time.Microsecond)
	}
	ev, held := newHeldTwin(true, 0.1, feed), newHeldTwin(false, 0.1, feed)
	for at := sim.Time(0); at < 2*time.Second; at += 70 * time.Microsecond {
		ev.s.RunUntil(at)
		held.s.RunUntil(at)
		compareHeldTwins(t, at.String(), ev, held)
		if t.Failed() {
			return
		}
	}
	ev.s.Run()
	held.s.Run()
	compareHeldTwins(t, "after Run", ev, held)
	st := held.l.Stats
	if st.LossDrops == 0 || st.QueueDrops == 0 || st.Ended == 0 || held.s.Held() == 0 {
		t.Fatalf("the feed missed a path: held %d, %+v", held.s.Held(), st)
	}
	if ev.s.Held() != 0 {
		t.Fatalf("a link with an injector held %d completions", ev.s.Held())
	}
}

// TestHeldCompletionAtItsInstant sends a packet that arrives exactly
// when an idle link's held transmission ends. An arrival scheduled
// before the transmission started has the lower seq: the completion
// has not fired yet, so the packet queues and claims it, and the
// completion fires as an event. An arrival scheduled after has the
// higher seq: the completion has passed and the transmitter is idle.
// Both start the packet at that instant, as completion events did.
func TestHeldCompletionAtItsInstant(t *testing.T) {
	const tx = time.Millisecond // 1000 bytes at 8 Mb/s
	for _, tc := range []struct {
		name      string
		belowSeq  bool
		wantHeld  uint64
		wantFired uint64
	}{
		// Fired: the first packet's send, the second's arrival, two
		// completions and two deliveries, as with an event for each.
		{"below the reserved seq", true, 1, 6},
		{"above the reserved seq", false, 2, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler()
			var got []arrival
			dst := NodeFunc(func(p *Packet) { got = append(got, arrival{p.ID, s.Now()}) })
			l := NewLink("l", s, 8e6, time.Millisecond, 0, dst)
			second := func() { l.Recv(&Packet{ID: 2, Size: 1000, QCI: 9}) }
			s.AtPooled(0, func() {
				l.Recv(&Packet{ID: 1, Size: 1000, QCI: 9})
				if !tc.belowSeq {
					s.AtPooled(tx, second)
				}
			})
			if tc.belowSeq {
				s.AtPooled(tx, second)
			}
			s.Run()
			want := []arrival{{1, 2 * time.Millisecond}, {2, 3 * time.Millisecond}}
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("Dst received %+v, want %+v", got, want)
			}
			if s.Held() != tc.wantHeld || s.Fired() != tc.wantFired {
				t.Fatalf("Held = %d, Fired = %d; want %d and %d", s.Held(), s.Fired(), tc.wantHeld, tc.wantFired)
			}
		})
	}
}

// TestRunDrainsHeldLoss ends a run on a lost held transmission: Run
// advances the clock to its end as the completion event did, and the
// loss, the clock and the fired count read as with that event.
func TestRunDrainsHeldLoss(t *testing.T) {
	run := func(events bool) (*sim.Scheduler, *Link) {
		s := sim.NewScheduler()
		l := NewLink("l", s, 8e6, time.Millisecond, 0, &Sink{})
		l.Loss = &BernoulliLoss{P: 1}
		if events {
			l.Inject = passInject{}
		}
		for i := 0; i < 3; i++ {
			s.AtPooled(sim.Time(i)*5*time.Millisecond, func() {
				l.Recv(&Packet{ID: uint64(i + 1), Size: 1000, QCI: 9})
			})
		}
		s.Run()
		l.Settle()
		return s, l
	}
	es, el := run(true)
	hs, hl := run(false)
	if hs.Now() != 11*time.Millisecond || hs.Now() != es.Now() {
		t.Errorf("Now = %v held, %v with events; want 11ms", hs.Now(), es.Now())
	}
	if hl.Stats.LossDrops != 3 || hl.Stats != el.Stats {
		t.Errorf("stats differ:\nevents %+v\nheld   %+v", el.Stats, hl.Stats)
	}
	if hs.Fired() != 6 || hs.Fired() != es.Fired() || hs.Held() != 3 {
		t.Errorf("Fired = %d held (%d of them held), %d with events; want 6", hs.Fired(), hs.Held(), es.Fired())
	}
	if hl.Backlog() != 0 || hl.InFlight() != 0 {
		t.Errorf("link not drained: Backlog %d, InFlight %d", hl.Backlog(), hl.InFlight())
	}
}

// TestRunUntilInsideHeldTransmission stops the clock while a held
// transmission is on: its packet counts in Backlog, not in InFlight,
// and its loss does not count yet. RunUntil at the end instant fires
// everything at it, so the transmission has ended there.
func TestRunUntilInsideHeldTransmission(t *testing.T) {
	for _, lost := range []bool{false, true} {
		s := sim.NewScheduler()
		l := NewLink("l", s, 8e6, time.Millisecond, 0, &Sink{})
		if lost {
			l.Loss = &BernoulliLoss{P: 1}
		}
		s.AtPooled(0, func() { l.Recv(&Packet{ID: 1, Size: 1000, QCI: 9}) })
		check := func(at sim.Time, backlog, inFlight int, lossDrops uint64) {
			t.Helper()
			s.RunUntil(at)
			if b, f := l.Backlog(), l.InFlight(); b != backlog || f != inFlight || l.Stats.LossDrops != lossDrops {
				t.Errorf("lost=%v at %v: Backlog %d, InFlight %d, LossDrops %d; want %d, %d, %d",
					lost, at, b, f, l.Stats.LossDrops, backlog, inFlight, lossDrops)
			}
		}
		check(500*time.Microsecond, 1, 0, 0)
		if lost {
			check(time.Millisecond, 0, 0, 1)
		} else {
			check(time.Millisecond, 0, 1, 0)
			check(2*time.Millisecond, 0, 0, 0)
		}
	}
}

// TestLinkHeldPathZeroAllocs counts raw mallocs over held
// transmissions, lost and sent, and over claimed ones, where a second
// packet queues behind a held first one.
func TestLinkHeldPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	dst := NodeFunc(func(p *Packet) { pp.Put(p) })
	// 100 Mb/s and 1000-byte packets: 80 µs per transmission, offered
	// every 100 µs, two at once every tenth step.
	l := NewLink("held", s, 1e8, 5*time.Millisecond, 1<<20, dst)
	l.Pool = pp
	l.Loss = &BernoulliLoss{P: 0.1, RNG: sim.NewRNG(5)}
	i := 0
	step := func() {
		for n := 1 + btoi(i%10 == 0); n > 0; n-- {
			p := pp.Get()
			p.Size, p.QCI = 1000, 9
			l.Recv(p)
		}
		i++
		s.RunUntil(s.Now() + 100*time.Microsecond)
	}
	warm := make([]*Packet, 200) // more than ever wait out the delay
	for n := range warm {
		warm[n] = pp.Get()
	}
	for _, p := range warm {
		pp.Put(p)
	}
	for n := 0; n < 1000; n++ { // warm heap and wire
		step()
	}
	heldBefore, firedBefore, outBefore := s.Held(), s.Fired(), l.Stats.OutPackets
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < 10000; n++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("held path made %d allocations (%d bytes) over 10000 steps, want 0",
			n, after.TotalAlloc-before.TotalAlloc)
	}
	// At most one packet ever waits, so every transmission is held; the
	// heap fires a delivery per packet sent and a claimed completion
	// per packet that waited.
	held := s.Held() - heldBefore
	claimed := s.Fired() - firedBefore - held - (l.Stats.OutPackets - outBefore)
	if held == 0 || claimed == 0 || l.Stats.LossDrops == 0 {
		t.Fatalf("a path did not run: %d held, %d claimed, %d lost", held, claimed, l.Stats.LossDrops)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
