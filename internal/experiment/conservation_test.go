package experiment

import (
	"fmt"
	"testing"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
	"tlc/internal/sim"
)

// checkLinkConservation requires every packet a link accepted, or a
// fault injector copied, to be delivered, dropped for a named reason,
// on the wire, or held in the queue or the transmitter.
func checkLinkConservation(t *testing.T, where string, l *netem.Link) {
	t.Helper()
	l.Settle()
	inFlight := uint64(l.InFlight())
	st := l.Stats
	in := st.InPackets + st.FaultDups
	out := st.OutPackets + st.QueueDrops + st.LossDrops + st.FaultDrops + inFlight + uint64(l.Backlog())
	if in != out {
		t.Errorf("%s %s: in %d + dups %d != out %d + queue drops %d + loss drops %d + fault drops %d + in flight %d + backlog %d (%+d unexplained)",
			where, l.Name, st.InPackets, st.FaultDups, st.OutPackets, st.QueueDrops, st.LossDrops,
			st.FaultDrops, inFlight, l.Backlog(), int64(in)-int64(out))
	}
}

// sampleConservation schedules a conservation check of links on s
// every stride until end, and returns how many checks found a link
// transmitting with nothing queued: inside a transmission whose
// completion it holds, unless the link has a fault injector.
func sampleConservation(t *testing.T, where string, s *sim.Scheduler, end, stride sim.Time, links ...*netem.Link) *int {
	inside := new(int)
	for at := stride; at < end; at += stride {
		at := at
		s.AtPooled(at, func() {
			if t.Failed() {
				return // one broken identity would fail every later sample
			}
			for _, l := range links {
				checkLinkConservation(t, fmt.Sprintf("%s at %v", where, at), l)
				if l.Backlog() == 1 {
					*inside++
				}
			}
		})
	}
	return inside
}

// TestLinkConservation checks every link at the end of the engine
// golden cells, a fault-injection cell and the quick city, and at
// instants sampled through each run, many of them inside held
// transmissions. The faults experiment's "light" cell at quick size
// ends with a fault-delayed packet still on its DL air link, and
// engine cell 0 with packets in the core bridge's queue and
// transmitter.
func TestLinkConservation(t *testing.T) {
	const stride = 997 * time.Microsecond
	opt := Quick()
	light := faultLevels()[1]
	cfgs := append(engineGoldenCfgs(), Config{
		App: apps.VRidgeGVSP, C: 0.5, Duration: opt.Duration, BackgroundMbps: 12,
		Seed: sim.SeedForCell(4200, 1, 0), Faults: light.spec(opt.Duration),
	})
	for i, cfg := range cfgs {
		tb := NewTestbed(cfg)
		links := []*netem.Link{tb.DLAir, tb.ULAir, tb.Bridge}
		where := fmt.Sprintf("cell %d", i)
		inside := sampleConservation(t, where, tb.Sched, cfg.Duration, stride, links...)
		tb.Run()
		for _, l := range links {
			checkLinkConservation(t, where, l)
		}
		if *inside == 0 {
			t.Errorf("%s: no sample fell inside a transmission with nothing queued", where)
		}
		if t.Failed() {
			return
		}
	}

	enbs, ues := CityScale(opt)
	cfg := CityConfig{ENodeBs: enbs, UEsPerENB: ues, Duration: opt.Duration, Seed: 4242}.withDefaults()
	r := buildCity(cfg)
	var insides []*int
	for _, c := range r.cells {
		insides = append(insides, sampleConservation(t, "city", c.sched, cfg.Duration, stride, c.backhaul, c.air))
	}
	if _, err := r.group.RunUntil(cfg.Duration, 0); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.cells {
		checkLinkConservation(t, "city", c.backhaul)
		checkLinkConservation(t, "city", c.air)
		if *insides[i] == 0 {
			t.Errorf("city cell %d: no sample fell inside a transmission with nothing queued", i)
		}
	}
}
