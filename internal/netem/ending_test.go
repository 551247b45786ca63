package netem

import (
	"runtime"
	"testing"
	"time"

	"tlc/internal/sim"
)

// idFaults is a deterministic FaultInjector keyed on packet IDs: it
// holds every 13th packet 3 ms on the wire and duplicates every 17th,
// so both twins of a comparison see the same faults without sharing
// an RNG.
type idFaults struct{}

func (idFaults) Apply(p *Packet, _ sim.Time) FaultAction {
	var a FaultAction
	if p.ID%13 == 0 {
		a.ExtraDelay = 3 * time.Millisecond
	}
	if p.ID%17 == 0 {
		a.Duplicate = true
	}
	return a
}

type arrival struct {
	id uint64
	at sim.Time
}

// endingTwin is one of two identical links fed the same packets, one
// of which ends background packets at its transmitter.
type endingTwin struct {
	s          *sim.Scheduler
	l          *Link
	foreground []arrival  // foreground packets as Dst received them
	background []sim.Time // when Dst received each background packet
}

func newEndingTwin(ends bool) *endingTwin {
	tw := &endingTwin{s: sim.NewScheduler()}
	pool := &PacketPool{}
	dst := NodeFunc(func(p *Packet) {
		if p.Background {
			tw.background = append(tw.background, tw.s.Now())
		} else {
			tw.foreground = append(tw.foreground, arrival{p.ID, tw.s.Now()})
		}
		pool.Put(p)
	})
	// 10 Mb/s into a 20 kB queue, offered about twice that: the queue
	// overflows and evicts, and a 5 ms delay keeps ~60 packets on the
	// wire.
	tw.l = NewLink("twin", tw.s, 10e6, 5*time.Millisecond, 20000, dst)
	tw.l.Pool = pool
	tw.l.Loss = &BernoulliLoss{P: 0.05, RNG: sim.NewRNG(7)}
	tw.l.Inject = idFaults{}
	tw.l.BackgroundEnds = ends
	// Every 300 µs for 200 ms: two background packets (QCI 9) for each
	// foreground one (QCI 7 or 9), sizes 200-1499 bytes.
	for i := 0; i < 667; i++ {
		tw.s.AtPooled(sim.Time(i)*300*time.Microsecond, func() {
			p := pool.Get()
			p.ID = uint64(i + 1)
			p.Size = 200 + (i*37)%1300
			p.QCI = 9
			p.Background = i%3 != 0
			if !p.Background && i%2 == 0 {
				p.QCI = 7
			}
			tw.l.Recv(p)
		})
	}
	return tw
}

// compareTwins requires the two links to agree on everything but the
// ended count, and the schedulers' fired counts to differ by exactly
// that count.
func compareTwins(t *testing.T, when string, a, b *endingTwin) {
	t.Helper()
	a.l.Settle()
	b.l.Settle()
	if got, want := b.l.InFlight(), a.l.InFlight(); got != want {
		t.Errorf("%s: InFlight = %d with BackgroundEnds, %d without", when, got, want)
	}
	sa, sb := a.l.Stats, b.l.Stats
	if sa.Ended != 0 {
		t.Errorf("%s: link without BackgroundEnds ended %d packets", when, sa.Ended)
	}
	sb.Ended = 0
	if sa != sb {
		t.Errorf("%s: stats differ:\nwithout %+v\nwith    %+v", when, sa, sb)
	}
	if a.l.qciEnq != b.l.qciEnq || a.l.qciDrop != b.l.qciDrop || a.l.qciOut != b.l.qciOut {
		t.Errorf("%s: per-QCI counters differ", when)
	}
	if a.l.Backlog() != b.l.Backlog() {
		t.Errorf("%s: Backlog = %d with BackgroundEnds, %d without", when, b.l.Backlog(), a.l.Backlog())
	}
	if d := a.s.Fired() - b.s.Fired(); d != b.l.Stats.Ended {
		t.Errorf("%s: fired counts differ by %d, ended %d", when, d, b.l.Stats.Ended)
	}
}

// TestBackgroundEndsMatchesWireDelivery feeds twin links the same
// background and foreground packets, with loss, queue overflow and
// injected delays and duplicates, and checks that ending background
// packets at the transmitter changes nothing but the fired count.
func TestBackgroundEndsMatchesWireDelivery(t *testing.T) {
	// Observe mid-stream at the instant a background packet reaches
	// Dst: the ended packet due exactly then counts as delivered, as
	// RunUntil fires every event at or before its deadline.
	probe := newEndingTwin(false)
	probe.s.RunUntil(time.Second)
	mid := probe.background[len(probe.background)/2]

	a, b := newEndingTwin(false), newEndingTwin(true)
	a.s.RunUntil(mid)
	b.s.RunUntil(mid)
	compareTwins(t, "mid-stream", a, b)
	if b.l.ended.Len() == 0 {
		t.Fatalf("at %v no ended packet is still in flight", mid)
	}

	// Past the horizon, the packets ended after the link's last send
	// are counted out only by Settle, inside compareTwins.
	a.s.RunUntil(time.Second)
	b.s.RunUntil(time.Second)
	if b.l.ended.Len() == 0 {
		t.Fatal("no ended packet awaits settling after the last send")
	}
	compareTwins(t, "after the horizon", a, b)
	if b.l.Stats.Ended == 0 || b.l.Stats.FaultDelays == 0 || b.l.Stats.FaultDups == 0 ||
		b.l.Stats.QueueDrops == 0 || b.l.Stats.LossDrops == 0 {
		t.Fatalf("the feed missed a path: %+v", b.l.Stats)
	}
	if b.l.InFlight() != 0 || b.l.Backlog() != 0 {
		t.Fatalf("link not drained: InFlight %d, Backlog %d", b.l.InFlight(), b.l.Backlog())
	}

	if len(a.foreground) != len(b.foreground) {
		t.Fatalf("Dst received %d foreground packets with BackgroundEnds, %d without",
			len(b.foreground), len(a.foreground))
	}
	for i := range a.foreground {
		if a.foreground[i] != b.foreground[i] {
			t.Fatalf("foreground arrival %d: %+v with BackgroundEnds, %+v without",
				i, b.foreground[i], a.foreground[i])
		}
	}
}

// TestBackgroundEndsZeroAllocs asserts the ending path — pool Get,
// Recv, queue, transmit, end (ring push, pool Put), Settle — allocates
// nothing once warm. Like TestLinkBacklogZeroAllocs it counts raw
// mallocs over the whole run, so a ring that regrew every few dozen
// packets would not hide in an integer average.
func TestBackgroundEndsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	s := sim.NewScheduler()
	pp := &PacketPool{}
	dst := NodeFunc(func(p *Packet) { t.Fatal("a background packet reached Dst") })
	// 100 Mb/s and 1000-byte packets every 100 µs: ~50 packets wait
	// out the 5 ms delay in the ended ring at any time.
	l := NewLink("ends", s, 1e8, 5*time.Millisecond, 1<<20, dst)
	l.Pool = pp
	l.BackgroundEnds = true
	step := func() {
		p := pp.Get()
		p.Size, p.QCI, p.Background = 1000, 9, true
		l.Recv(p)
		s.RunUntil(s.Now() + 100*time.Microsecond)
	}
	for i := 0; i < 1000; i++ { // warm pool, heap and ring
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("ending path made %d allocations (%d bytes) over 10000 packets, want 0",
			n, after.TotalAlloc-before.TotalAlloc)
	}
	if l.InFlight() == 0 || l.Stats.Ended == 0 {
		t.Fatalf("nothing ended: InFlight %d, Ended %d", l.InFlight(), l.Stats.Ended)
	}
}
