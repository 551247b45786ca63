package experiment

import (
	"testing"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
)

func shortRun(t *testing.T, cfg Config) *CycleResult {
	t.Helper()
	if cfg.Duration == 0 {
		cfg.Duration = 30 * time.Second
	}
	tb := NewTestbed(cfg)
	return tb.Run()
}

func TestUplinkWebcamBaseline(t *testing.T) {
	r := shortRun(t, Config{App: apps.WebCamUDP, Seed: 1, C: 0.5})
	if r.Truth.Sent == 0 {
		t.Fatal("no uplink traffic")
	}
	// The app should achieve roughly its nominal bitrate.
	mbps := r.Truth.Sent * 8 / r.Cfg.Duration.Seconds() / 1e6
	if mbps < 1.3 || mbps > 2.2 {
		t.Fatalf("UL bitrate = %.2f Mbps, want ~1.73", mbps)
	}
	// Loss exists (residuals) but is bounded in good radio.
	loss := (r.Truth.Sent - r.Truth.Received) / r.Truth.Sent
	if loss <= 0.01 || loss > 0.20 {
		t.Fatalf("baseline UL loss = %.3f, want a few percent", loss)
	}
	// x̂o ≤ x̂ ≤ x̂e.
	if r.XHat < r.Truth.Received || r.XHat > r.Truth.Sent {
		t.Fatalf("xhat %v outside [%v, %v]", r.XHat, r.Truth.Received, r.Truth.Sent)
	}
}

func TestDownlinkVRBaseline(t *testing.T) {
	r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 2, C: 0.5})
	mbps := r.Truth.Sent * 8 / r.Cfg.Duration.Seconds() / 1e6
	if mbps < 7 || mbps > 11 {
		t.Fatalf("DL bitrate = %.2f Mbps, want ~9", mbps)
	}
	loss := (r.Truth.Sent - r.Truth.Received) / r.Truth.Sent
	if loss <= 0.02 || loss > 0.20 {
		t.Fatalf("baseline DL loss = %.3f", loss)
	}
	// Legacy charges the gateway meter, which sits before the air
	// loss: legacy ≈ sent > x̂.
	if r.LegacyCharge < r.XHat {
		t.Fatalf("legacy %v < xhat %v; DL metering point wrong", r.LegacyCharge, r.XHat)
	}
}

func TestCongestionEnlargesGap(t *testing.T) {
	quiet := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 3, C: 0.5})
	busy := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 3, C: 0.5, BackgroundMbps: 160})
	lossQ := (quiet.Truth.Sent - quiet.Truth.Received) / quiet.Truth.Sent
	lossB := (busy.Truth.Sent - busy.Truth.Received) / busy.Truth.Sent
	if lossB <= lossQ {
		t.Fatalf("congestion did not enlarge loss: %.3f vs %.3f", lossQ, lossB)
	}
}

func TestGamingQCI7ResistsCongestion(t *testing.T) {
	busyGame := shortRun(t, Config{App: apps.Gaming, Seed: 4, C: 0.5, BackgroundMbps: 160})
	lossGame := (busyGame.Truth.Sent - busyGame.Truth.Received) / busyGame.Truth.Sent
	busyVR := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 4, C: 0.5, BackgroundMbps: 160})
	lossVR := (busyVR.Truth.Sent - busyVR.Truth.Received) / busyVR.Truth.Sent
	// The dedicated QCI=7 bearer shields gaming from queue drops.
	if lossGame >= lossVR {
		t.Fatalf("QCI7 gaming loss %.3f >= QCI9 VR loss %.3f", lossGame, lossVR)
	}
}

func TestIntermittentConnectivityEnlargesGap(t *testing.T) {
	steady := shortRun(t, Config{App: apps.WebCamUDP, Seed: 5, C: 0.5, Duration: 60 * time.Second})
	flaky := shortRun(t, Config{
		App: apps.WebCamUDP, Seed: 5, C: 0.5, Duration: 60 * time.Second,
		RSS: RSSSpec{Base: -90, MeanGap: 15 * time.Second, MeanOutage: 2 * time.Second},
	})
	if flaky.Eta <= 0.005 {
		t.Fatalf("eta = %.4f, outages did not register", flaky.Eta)
	}
	lossS := (steady.Truth.Sent - steady.Truth.Received) / steady.Truth.Sent
	lossF := (flaky.Truth.Sent - flaky.Truth.Received) / flaky.Truth.Sent
	if lossF <= lossS {
		t.Fatalf("intermittency did not enlarge loss: %.3f vs %.3f", lossS, lossF)
	}
}

func TestSchemesOrderingOnCycle(t *testing.T) {
	// Paper Table 2 ordering (on averages): optimal < random <
	// legacy gaps. Individual seeds can tie, so average a few runs
	// of a congested downlink scenario.
	var sumLeg, sumOpt, sumRnd float64
	const n = 5
	for seed := int64(0); seed < n; seed++ {
		r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 600 + seed, C: 0.5, BackgroundMbps: 160})
		res := EvaluateAll(r, 60+seed)
		leg, opt, rnd := res[SchemeLegacy], res[SchemeOptimal], res[SchemeRandom]
		if !opt.Converged || !rnd.Converged {
			t.Fatalf("seed %d: TLC schemes did not converge: %+v %+v", seed, opt, rnd)
		}
		if opt.Rounds != 1 {
			t.Fatalf("seed %d: optimal rounds = %d, want 1", seed, opt.Rounds)
		}
		// TLC-optimal's relative gap stays small (paper: ≤2.5%).
		if opt.Epsilon > 0.05 {
			t.Fatalf("seed %d: optimal epsilon = %.3f", seed, opt.Epsilon)
		}
		sumLeg += leg.Delta
		sumOpt += opt.Delta
		sumRnd += rnd.Delta
	}
	if !(sumOpt < sumRnd && sumRnd < sumLeg) {
		t.Fatalf("average gap ordering violated: opt=%.0f rnd=%.0f leg=%.0f",
			sumOpt/n, sumRnd/n, sumLeg/n)
	}
}

func TestC1MakesTLCEqualLegacyOnDownlink(t *testing.T) {
	// §7.1: "When c = 1 ... TLC is the same as the honest legacy
	// 4G/5G" — all sent (gateway-metered) data is charged.
	r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 7, C: 1})
	res := EvaluateAll(r, 70)
	leg, opt := res[SchemeLegacy], res[SchemeOptimal]
	relDiff := (opt.X - leg.X) / leg.X
	if relDiff < -0.05 || relDiff > 0.05 {
		t.Fatalf("c=1: TLC %.0f vs legacy %.0f (%.2f%%)", opt.X, leg.X, relDiff*100)
	}
}

func TestDetachPreventsCharging(t *testing.T) {
	// A long outage detaches the device; the SPGW must discard the
	// downlink uncharged, so the legacy gap stays bounded.
	r := shortRun(t, Config{
		App: apps.VRidgeGVSP, Seed: 8, C: 0.5, Duration: 60 * time.Second,
		RSS: RSSSpec{Base: -90, MeanGap: 20 * time.Second, MeanOutage: 8 * time.Second},
	})
	if r.DetachedDrops == 0 {
		t.Fatal("no detached drops despite long outages")
	}
}

func TestCDRsEmitted(t *testing.T) {
	r := shortRun(t, Config{App: apps.WebCamRTSP, Seed: 9, C: 0.5})
	if r.CDRCount < int(r.Cfg.Duration.Seconds())/2 {
		t.Fatalf("CDRs = %d over %v", r.CDRCount, r.Cfg.Duration)
	}
}

func TestCounterChecksHappen(t *testing.T) {
	r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 10, C: 0.5})
	if r.CounterChecks == 0 {
		t.Fatal("no counter checks completed")
	}
}

func TestRecordErrorsAreSmall(t *testing.T) {
	r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 11, C: 0.5, Duration: 60 * time.Second})
	// Figure 18 regime: operator DL record error ~2%, edge ~1.2%.
	opErr := relErr(r.OpView.Received, r.Truth.Received)
	edgeErr := relErr(r.EdgeView.Sent, r.Truth.Sent)
	if opErr > 0.15 {
		t.Fatalf("operator record error = %.3f", opErr)
	}
	if edgeErr > 0.08 {
		t.Fatalf("edge record error = %.3f", edgeErr)
	}
}

func relErr(est, truth float64) float64 {
	if truth == 0 {
		return 0
	}
	d := est - truth
	if d < 0 {
		d = -d
	}
	return d / truth
}

func TestInternetLossBoundsOvercharge(t *testing.T) {
	// Appendix D: with the server on the internet, the edge is
	// over-charged by at most c·(x̂'e − x̂e) where x̂'e is the
	// server-sent volume and x̂e the core-received volume.
	r := shortRun(t, Config{App: apps.VRidgeGVSP, Seed: 13, C: 0.5, InternetLoss: 0.1})
	opt := Evaluate(r, SchemeHonest, 130)
	// Ideal billing uses the core-received volume x̂e (≈ gateway
	// meter); the edge's internet-side sent record x̂'e exceeds it,
	// so the settled charge overshoots by at most c·(x̂'e − x̂e).
	coreSent := r.LegacyCharge
	idealXHat := r.Truth.Received + r.Cfg.C*(coreSent-r.Truth.Received)
	overcharge := opt.X - idealXHat
	bound := r.Cfg.C*(r.Truth.Sent-coreSent) + 0.02*idealXHat // +2% record-error slack
	if overcharge > bound {
		t.Fatalf("overcharge %.0f exceeds Appendix D bound %.0f", overcharge, bound)
	}
	if r.Truth.Sent <= coreSent {
		t.Fatal("internet loss did not reduce core-received volume")
	}
}

func TestPerHourScaling(t *testing.T) {
	r := &CycleResult{}
	r.Cfg.Duration = 30 * time.Second
	if got := r.PerHour(1e6); got != 120 {
		t.Fatalf("PerHour = %v, want 120 MB/hr", got)
	}
}

func TestGapReduction(t *testing.T) {
	if GapReduction(0, 5) != 0 {
		t.Fatal("zero legacy not handled")
	}
	if got := GapReduction(100, 90); got != 0.1 {
		t.Fatalf("GapReduction = %v", got)
	}
}

func TestDeterminism(t *testing.T) {
	a := shortRun(t, Config{App: apps.WebCamUDP, Seed: 42, C: 0.5, BackgroundMbps: 100})
	b := shortRun(t, Config{App: apps.WebCamUDP, Seed: 42, C: 0.5, BackgroundMbps: 100})
	if a.Truth.Sent != b.Truth.Sent || a.Truth.Received != b.Truth.Received ||
		a.LegacyCharge != b.LegacyCharge {
		t.Fatalf("same seed diverged: %+v vs %+v", a.Truth, b.Truth)
	}
}

func TestDirectionsWired(t *testing.T) {
	ul := shortRun(t, Config{App: apps.WebCamUDP, Seed: 14, C: 0.5})
	if ul.Cfg.App.Dir != netem.Uplink {
		t.Fatal("webcam dir")
	}
	// Uplink traffic must not appear in downlink meters.
	tb := NewTestbed(Config{App: apps.WebCamUDP, Seed: 14, C: 0.5, Duration: 10 * time.Second})
	tb.Run()
	if tb.SrvAppSent.TotalBytes() != 0 || tb.DevAppRecv.TotalBytes() != 0 {
		t.Fatal("UL traffic leaked into DL meters")
	}
	if tb.DevAppSent.TotalBytes() == 0 || tb.SrvAppRecv.TotalBytes() == 0 {
		t.Fatal("UL meters empty")
	}
}
