package experiment

import (
	"strings"
	"testing"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
)

func TestHeadlineShape(t *testing.T) {
	res := Headline(Quick())
	if res.ID != "headline" || !strings.Contains(res.Text, "WebCam-RTSP") {
		t.Fatalf("headline output:\n%s", res.Text)
	}
	// Every workload row present.
	for _, app := range fig3Apps {
		if !strings.Contains(res.Text, app.Name) {
			t.Fatalf("missing %s:\n%s", app.Name, res.Text)
		}
	}
}

func TestFig3GapGrowsWithCongestion(t *testing.T) {
	opt := Quick()
	opt.BGLevels = []float64{0, 160}
	opt.Duration = 20 * time.Second
	// Use the raw sweep rather than parsing text.
	for i, app := range fig3Apps {
		var gaps []float64
		for _, bg := range opt.BGLevels {
			r := NewTestbed(Config{
				App: app, Seed: int64(300 + i*31), C: 0.5,
				Duration: opt.Duration, BackgroundMbps: bg,
			}).Run()
			gaps = append(gaps, legacyGapBytes(r))
		}
		if gaps[1] <= gaps[0] {
			t.Fatalf("%s: congestion gap %v <= baseline %v", app.Name, gaps[1], gaps[0])
		}
	}
	res := Fig3(opt)
	if !strings.Contains(res.Text, "bg-Mbps") {
		t.Fatalf("fig3 output:\n%s", res.Text)
	}
}

func TestFig4TimeSeries(t *testing.T) {
	res := Fig4(Quick())
	if !strings.Contains(res.Text, "RSS(dBm)") || !strings.Contains(res.Text, "total gap") {
		t.Fatalf("fig4 output:\n%s", res.Text)
	}
	// The RSS column must show outages (values at the depth level).
	if !strings.Contains(res.Text, "-125") {
		t.Logf("fig4 (no visible outage sample at print resolution):\n%s", res.Text)
	}
}

func TestDatasetCountsCDRs(t *testing.T) {
	res := Dataset(Quick())
	for _, app := range apps.Workloads {
		if !strings.Contains(res.Text, app.Name) {
			t.Fatalf("dataset missing %s:\n%s", app.Name, res.Text)
		}
	}
}

// standardSweep runs one app's §7.1 grid at c on its own, for tests
// that check one app or one c at a time.
func standardSweep(app apps.Profile, c float64, opt Options, baseSeed int64) []sweepCell {
	return sweepGrids(opt, [][]Config{standardGrid(app, c, opt, baseSeed)})[0]
}

func TestTable2SchemeOrdering(t *testing.T) {
	opt := Quick()
	opt.Duration = 20 * time.Second
	opt.Seeds = 2
	// Recompute the underlying averages to assert the paper's
	// ordering: optimal ε < legacy ε for every workload.
	for i, app := range apps.Workloads {
		cells := standardSweep(app, 0.5, opt, int64(2200+100*i))
		var legSum, optSum float64
		for _, cell := range cells {
			legSum += cell.res[SchemeLegacy].Epsilon
			optSum += cell.res[SchemeOptimal].Epsilon
		}
		if optSum >= legSum {
			t.Fatalf("%s: optimal ε sum %.3f >= legacy %.3f", app.Name, optSum, legSum)
		}
		// TLC-optimal's average relative gap stays small.
		if optSum/float64(len(cells)) > 0.05 {
			t.Fatalf("%s: optimal mean ε = %.3f", app.Name, optSum/float64(len(cells)))
		}
	}
}

func TestFig14EtaSweepMonotone(t *testing.T) {
	// Denser outages must produce larger legacy gaps.
	app := apps.WebCamUDP.WithDirection(netem.Downlink)
	mk := func(gap time.Duration, seed int64) float64 {
		r := NewTestbed(Config{
			App: app, Seed: seed, C: 0.5, Duration: 30 * time.Second,
			RSS: RSSSpec{Base: -90, MeanGap: gap, MeanOutage: 1930 * time.Millisecond},
		}).Run()
		return Evaluate(r, SchemeLegacy, seed).Epsilon
	}
	sparse := (mk(40*time.Second, 1) + mk(40*time.Second, 2) + mk(40*time.Second, 3)) / 3
	dense := (mk(8*time.Second, 1) + mk(8*time.Second, 2) + mk(8*time.Second, 3)) / 3
	if dense <= sparse {
		t.Fatalf("legacy gap did not grow with eta: sparse=%.3f dense=%.3f", sparse, dense)
	}
}

func TestFig15SmallerCMoreReduction(t *testing.T) {
	opt := Quick()
	opt.Duration = 20 * time.Second
	mu := func(c float64) float64 {
		cells := standardSweep(apps.VRidgeGVSP, c, opt, int64(5500+int(c*100)))
		var sum float64
		for _, cell := range cells {
			sum += GapReduction(cell.res[SchemeLegacy].X, cell.res[SchemeOptimal].X)
		}
		return sum / float64(len(cells))
	}
	mu0, mu1 := mu(0), mu(1)
	if mu0 <= mu1 {
		t.Fatalf("µ(c=0)=%.3f <= µ(c=1)=%.3f; reduction must shrink with c", mu0, mu1)
	}
	// At c=1 TLC charges all sent data, like honest legacy: µ ≈ 0.
	if mu1 > 0.05 || mu1 < -0.05 {
		t.Fatalf("µ(c=1) = %.3f, want ~0", mu1)
	}
}

func TestFig16aNoInCycleImpact(t *testing.T) {
	res := Fig16a(Quick())
	for _, dev := range []string{"EL20", "Pixel2XL", "S7Edge"} {
		if !strings.Contains(res.Text, dev) {
			t.Fatalf("fig16a missing %s:\n%s", dev, res.Text)
		}
	}
}

func TestFig16bOptimalIsOneRound(t *testing.T) {
	opt := Quick()
	opt.Duration = 15 * time.Second
	res := Fig16b(opt)
	if rounds := res.Metrics["rounds_random_"+apps.WebCamUDP.Name]; rounds < 1.2 || rounds > 10 {
		t.Fatalf("random rounds = %.1f, want a few", rounds)
	}
	if !strings.Contains(res.Text, "TLC-optimal") || res.Metrics["rounds_optimal"] != 1 {
		t.Fatalf("fig16b output:\n%s", res.Text)
	}
}

func TestFig17RealCryptoAndSizes(t *testing.T) {
	res := Fig17(Quick())
	for _, want := range []string{"TLC CDR", "TLC CDA", "TLC PoC", "PoCs/hour", "this-host"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("fig17 missing %q:\n%s", want, res.Text)
		}
	}
}

func TestFig18ErrorsInPaperRegime(t *testing.T) {
	opt := Quick()
	opt.Duration = 20 * time.Second
	res := Fig18(opt)
	if !strings.Contains(res.Text, "operator record error") {
		t.Fatalf("fig18 output:\n%s", res.Text)
	}
}

func TestAppendixDBoundHolds(t *testing.T) {
	opt := Quick()
	opt.Duration = 15 * time.Second
	res := AppendixD(opt)
	if strings.Contains(res.Text, "false") {
		t.Fatalf("Appendix D bound violated:\n%s", res.Text)
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing runner for %s", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestHandoverExperiment(t *testing.T) {
	opt := Quick()
	opt.Duration = 15 * time.Second
	res := Handover(opt)
	if !strings.Contains(res.Text, "handovers") || !strings.Contains(res.Text, "none") {
		t.Fatalf("handover output:\n%s", res.Text)
	}
}

func TestRetransmissionExperiment(t *testing.T) {
	res := Retransmission(Quick())
	if !strings.Contains(res.Text, "over-charge") {
		t.Fatalf("retransmission output:\n%s", res.Text)
	}
	// The most aggressive RTO row must show a positive over-charge.
	lines := strings.Split(strings.TrimSpace(res.Text), "\n")
	last := lines[len(lines)-2] // row before the caption
	if strings.Contains(last, " 0.0%") {
		t.Fatalf("aggressive RTO shows no over-charge:\n%s", res.Text)
	}
}

func TestStrawmanExperiment(t *testing.T) {
	opt := Quick()
	opt.Duration = 15 * time.Second
	res := Strawman(opt)
	for _, want := range []string{"strawman 1", "strawman 2", "RRC COUNTER CHECK", "revenue loss"} {
		if !strings.Contains(res.Text, want) {
			t.Fatalf("strawman output missing %q:\n%s", want, res.Text)
		}
	}
}
