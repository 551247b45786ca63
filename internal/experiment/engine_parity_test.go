package experiment

import (
	"testing"
	"time"

	"tlc/internal/apps"
)

// These goldens were captured from the seed event engine — the
// container/heap binary-heap scheduler and the per-packet delivery
// closure in Link.propagate — immediately before the 4-ary-heap +
// delivery-ring rewrite. The rewrite claims *bit-for-bit* preservation
// of the (time, seq) event order, so every float here must match
// exactly: no tolerance, no "statistically close".

type engineGolden struct {
	TruthSent, TruthRecv float64
	XHat                 float64
	EdgeSent, EdgeRecv   float64
	OpSent, OpRecv       float64
	Legacy, Eta          float64
	CDRs                 int
	Fired                uint64
	// Ended is the DL air link's netem.LinkStats.Ended: the background
	// packets it ends at the transmitter, each one delivery event the
	// seed engine fired and this engine does not.
	Ended uint64
}

// engineGoldenCfgs exercise the paths the rewrite touched: pooled
// event churn under background congestion, outage gating (cancel-
// heavy), handover buffer flushes (DropQueuedFraction), queue
// overflow eviction.
func engineGoldenCfgs() []Config {
	return []Config{
		{App: apps.VRidgeGVSP, Seed: 424242, C: 0.5, Duration: 12 * time.Second,
			BackgroundMbps: 140,
			RSS:            RSSSpec{Base: -90, MeanGap: 6 * time.Second, MeanOutage: 1500 * time.Millisecond}},
		{App: apps.WebCamUDP, Seed: 777, C: 0.5, Duration: 10 * time.Second},
		{App: apps.WebCamRTSP, Seed: 31337, C: 0.3, Duration: 10 * time.Second,
			BackgroundMbps: 160, HandoverMeanInterval: 4 * time.Second},
	}
}

var engineGoldens = []engineGolden{
	{ // cell 0: congestion + outages
		TruthSent: 1.3564801e+07, TruthRecv: 1.0525119e+07,
		XHat:     1.204496e+07,
		EdgeSent: 1.345545253467185e+07, EdgeRecv: 1.046606512916897e+07,
		OpSent: 1.348184466413358e+07, OpRecv: 1.0739021e+07,
		Legacy: 1.348184466413358e+07, Eta: 0.1,
		CDRs: 14, Fired: 183529, Ended: 25074,
	},
	{ // cell 1: clean radio
		TruthSent: 2.227274e+06, TruthRecv: 2.035661e+06,
		XHat:     2.1314675e+06,
		EdgeSent: 2.22166134079853e+06, EdgeRecv: 2.03348153674065e+06,
		OpSent: 2.19224277589658e+06, OpRecv: 2.04077777589658e+06,
		Legacy: 2.19224277589658e+06, Eta: 0,
		CDRs: 12, Fired: 8472,
	},
	{ // cell 2: congestion + handovers
		TruthSent: 915791, TruthRecv: 681970,
		XHat:     752116.3,
		EdgeSent: 904886.06569303, EdgeRecv: 675371.94409381,
		OpSent: 905086.10085998, OpRecv: 675709.84124614,
		Legacy: 905086.10085998, Eta: 0,
		CDRs: 12, Fired: 144550, Ended: 24977,
	},
}

func TestEngineParityWithSeedEngine(t *testing.T) {
	for i, cfg := range engineGoldenCfgs() {
		want := engineGoldens[i]
		tb := NewTestbed(cfg)
		r := tb.Run()
		check := func(name string, got, exp float64) {
			if got != exp {
				t.Errorf("cell %d %s = %v, seed engine produced %v", i, name, got, exp)
			}
		}
		check("Truth.Sent", r.Truth.Sent, want.TruthSent)
		check("Truth.Received", r.Truth.Received, want.TruthRecv)
		check("XHat", r.XHat, want.XHat)
		check("EdgeView.Sent", r.EdgeView.Sent, want.EdgeSent)
		check("EdgeView.Received", r.EdgeView.Received, want.EdgeRecv)
		check("OpView.Sent", r.OpView.Sent, want.OpSent)
		check("OpView.Received", r.OpView.Received, want.OpRecv)
		check("LegacyCharge", r.LegacyCharge, want.Legacy)
		check("Eta", r.Eta, want.Eta)
		if r.CDRCount != want.CDRs {
			t.Errorf("cell %d CDRs = %d, seed engine produced %d", i, r.CDRCount, want.CDRs)
		}
		// The fired-event count proves the engines executed the *same
		// events*, not merely ones that aggregate to the same totals.
		// The DL air link ends background packets at its transmitter
		// (netem.Link.BackgroundEnds) instead of firing the delivery
		// the seed engine fired for each, so the ended count is pinned
		// too, and the fired events plus the ended packets must equal
		// the seed engine's count.
		tb.DLAir.Settle()
		fired, ended := tb.Sched.Fired(), tb.DLAir.Stats.Ended
		if ended != want.Ended {
			t.Errorf("cell %d ended %d background packets, want %d", i, ended, want.Ended)
		}
		if fired+ended != want.Fired {
			t.Errorf("cell %d fired %d events and ended %d packets (sum %d), seed engine fired %d",
				i, fired, ended, fired+ended, want.Fired)
		}
	}
}

// TestEngineParityFigureMetrics pins two full figure sweeps (the
// tier-1 acceptance figures) to the seed engine's metric maps.
func TestEngineParityFigureMetrics(t *testing.T) {
	want := map[string]map[string]float64{
		"fig12": {
			"delta_mbhr_mean_legacy":      211.06934083187443,
			"delta_mbhr_mean_tlc-optimal": 318.490091854892,
			"delta_mbhr_mean_tlc-random":  182.30497527126192,
		},
		"table2": {
			"eps_mean_legacy":      0.10749589425547058,
			"eps_mean_tlc-optimal": 0.18575568146771773,
			"eps_mean_tlc-random":  0.08775559210101502,
		},
	}
	for id, metrics := range want {
		run, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing", id)
		}
		res := run(Quick())
		for k, exp := range metrics {
			if got := res.Metrics[k]; got != exp {
				t.Errorf("%s metric %s = %v, seed engine produced %v", id, k, got, exp)
			}
		}
	}
}
