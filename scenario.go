package tlc

import (
	"fmt"
	"time"

	"tlc/internal/apps"
	"tlc/internal/experiment"
	"tlc/internal/netem"
)

// Scenario configures one charging cycle on the emulated testbed
// (edge device, small cell, LTE core, co-located edge server). It is
// the library-level entry to the machinery behind the paper's
// evaluation; examples/ and cmd/tlcbench build on it.
type Scenario struct {
	// App selects the workload: "WebCam-RTSP", "WebCam-UDP",
	// "VRidge-GVSP" or "Gaming-QCI7".
	App string
	// Downlink flips an uplink workload to downlink (the paper's
	// Figure 4 uses a downlink UDP WebCam).
	Downlink bool
	// Duration is the charging cycle length (default 60s).
	Duration time.Duration
	// C is the lost-data charging weight (default 0.5).
	C float64
	// BackgroundMbps adds iperf-style cross traffic.
	BackgroundMbps float64
	// OutageMeanGap/OutageMeanDur enable intermittent connectivity.
	OutageMeanGap time.Duration
	OutageMeanDur time.Duration
	// Seed fixes all randomness.
	Seed int64
}

// SchemeOutcome is one charging scheme's result on the cycle.
type SchemeOutcome struct {
	// Charge is the billed volume in bytes.
	Charge uint64
	// Gap is Δ = |charge − expected| in bytes; GapRatio is ε = Δ/x̂.
	Gap      uint64
	GapRatio float64
	// Rounds is the negotiation length (0 for legacy).
	Rounds int
}

// ScenarioReport summarises one cycle.
type ScenarioReport struct {
	// SentBytes and ReceivedBytes are the ground-truth usage pair
	// (x̂e, x̂o).
	SentBytes     uint64
	ReceivedBytes uint64
	// ExpectedCharge is the plan-correct x̂.
	ExpectedCharge uint64
	// Legacy, TLCOptimal and TLCRandom compare the schemes of §7.1.
	Legacy     SchemeOutcome
	TLCOptimal SchemeOutcome
	TLCRandom  SchemeOutcome
	// DisconnectRatio is the intermittent disconnectivity ratio η.
	DisconnectRatio float64
	// CDRs is the number of gateway charging records produced.
	CDRs int
}

// RunScenario executes the scenario and evaluates the three charging
// schemes on the same traffic.
func RunScenario(s Scenario) (*ScenarioReport, error) {
	prof, ok := apps.ProfileByName(s.App)
	if !ok {
		if s.App == "" {
			prof = apps.WebCamUDP
		} else {
			return nil, fmt.Errorf("tlc: unknown app %q", s.App)
		}
	}
	if s.Downlink {
		prof = prof.WithDirection(netem.Downlink)
	}
	c := s.C
	if c == 0 {
		c = 0.5
	}
	cfg := experiment.Config{
		App:            prof,
		Duration:       s.Duration,
		Seed:           s.Seed,
		C:              c,
		BackgroundMbps: s.BackgroundMbps,
	}
	if s.OutageMeanGap > 0 && s.OutageMeanDur > 0 {
		cfg.RSS = experiment.RSSSpec{Base: -90, MeanGap: s.OutageMeanGap, MeanOutage: s.OutageMeanDur}
	}
	r := experiment.NewTestbed(cfg).Run()
	res := experiment.EvaluateAll(r, s.Seed+1)

	mk := func(sr experiment.SchemeResult) SchemeOutcome {
		return SchemeOutcome{
			Charge:   uint64(sr.X),
			Gap:      uint64(sr.Delta),
			GapRatio: sr.Epsilon,
			Rounds:   sr.Rounds,
		}
	}
	return &ScenarioReport{
		SentBytes:       uint64(r.Truth.Sent),
		ReceivedBytes:   uint64(r.Truth.Received),
		ExpectedCharge:  uint64(r.XHat),
		Legacy:          mk(res[experiment.SchemeLegacy]),
		TLCOptimal:      mk(res[experiment.SchemeOptimal]),
		TLCRandom:       mk(res[experiment.SchemeRandom]),
		DisconnectRatio: r.Eta,
		CDRs:            r.CDRCount,
	}, nil
}

// Apps lists the available scenario workload names.
//
//tlcvet:allow unreached — the root tlc package's exported API
func Apps() []string {
	out := make([]string, len(apps.Workloads))
	for i, p := range apps.Workloads {
		out[i] = p.Name
	}
	return out
}
