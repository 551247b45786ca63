package experiment

import (
	"fmt"
	"testing"

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

// TestLinkConservation checks every link at the end of the engine
// golden cells, a fault-injection cell and the quick city. The faults
// experiment's "light" cell at quick size ends with a fault-delayed
// packet still on its DL air link, and engine cell 0 with packets in
// the core bridge's queue and transmitter.
func TestLinkConservation(t *testing.T) {
	opt := Quick()
	light := faultLevels()[1]
	cfgs := append(engineGoldenCfgs(), Config{
		App: apps.VRidgeGVSP, C: 0.5, Duration: opt.Duration, BackgroundMbps: 12,
		Seed: sim.SeedForCell(4200, 1, 0), Faults: light.spec(opt.Duration),
	})
	for i, cfg := range cfgs {
		tb := NewTestbed(cfg)
		tb.Run()
		for _, l := range []*netem.Link{tb.DLAir, tb.ULAir, tb.Bridge} {
			checkLinkConservation(t, fmt.Sprintf("cell %d", i), l)
		}
	}

	enbs, ues := CityScale(opt)
	cfg := CityConfig{ENodeBs: enbs, UEsPerENB: ues, Duration: opt.Duration, Seed: 4242}.withDefaults()
	r := buildCity(cfg)
	if _, err := r.group.RunUntil(cfg.Duration, 0); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.cells {
		checkLinkConservation(t, "city", c.backhaul)
		checkLinkConservation(t, "city", c.air)
	}
}
