package experiment

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/roaming"
	"tlc/internal/sim"
)

// roamLevel is one visited-network loss intensity of the sweep: the
// drop happens inside the visited network, after the vendor<->visited
// settlement point — exactly the loss the bilateral game cannot see
// and the chained settlement must bound.
type roamLevel struct {
	name string
	l2   float64 // loss fraction inside the visited network
}

func roamLevels() []roamLevel {
	return []roamLevel{
		{"0pct", 0},
		{"2pct", 0.02},
		{"5pct", 0.05},
		{"10pct", 0.10},
		{"20pct", 0.20},
	}
}

// Roaming sweeps the chained three-party settlement over visited-
// network loss and then runs the chain-level byzantine battery over
// the signed wire protocol. It answers the multi-operator questions
// the bilateral experiments cannot: does the charging gap stay
// bounded by c·L2 + c²·L1 when the loss sits in the visited network,
// does the per-cycle settlement always net to zero, and does the
// countersigned chain keep every forged or replayed relay out
// (byz_chain_verified must be 0).
func Roaming(opt Options) Result {
	opt = opt.withDefaults()
	levels := roamLevels()

	type cellOut struct {
		legacyGap  float64 // legacy billing (vendor egress) vs delivered
		chainGap   float64 // chained billing vs delivered
		boundFrac  float64 // gap as a fraction of the chained bound
		inBound    bool
		zeroSum    bool
		margin     float64 // visited operator's X2-X1 spread, relative to X1
		vendorPaid bool    // vendor collected exactly X1
		converged  bool
	}
	const c = 0.5
	n := len(levels) * opt.Seeds
	cells := SweepN(n, opt.Workers, func(i int) cellOut {
		li, seed := i/opt.Seeds, i%opt.Seeds
		rng := sim.NewRNG(sim.SeedForCell(4400, li, seed))
		sent := rng.Uniform(5e8, 1.5e9)
		// A sliver of upstream loss keeps L1 in play; the sweep's
		// variable is the visited-network loss L2.
		arrived := sent * (1 - rng.Uniform(0, 0.01))
		delivered := arrived * (1 - levels[li].l2)
		tr := roaming.Truth{Sent: sent, Arrived: arrived, Delivered: delivered}

		g := roaming.Game{
			C:       c,
			Vendor:  core.HonestStrategy{},
			Visited: core.HonestStrategy{},
			Home:    core.HonestStrategy{},
		}
		out, err := g.Play(tr, rng.Fork("play"))
		if err != nil || !out.Converged {
			return cellOut{}
		}
		bound := roaming.ChainedGapBound(c, tr.L1(), tr.L2())
		gap := out.X2 - delivered
		s := roaming.Settle(poc.RoundVolume(out.X1), poc.RoundVolume(out.X2))
		boundFrac := 1.0
		if bound > 0 {
			boundFrac = gap / bound
		}
		return cellOut{
			legacyGap:  (sent - delivered) / delivered,
			chainGap:   gap / delivered,
			boundFrac:  boundFrac,
			inBound:    gap >= -1e-6 && gap <= bound+1e-6,
			zeroSum:    s.ZeroSum(),
			margin:     (out.X2 - out.X1) / out.X1,
			vendorPaid: s.Balances[roaming.Vendor] == int64(poc.RoundVolume(out.X1)),
			converged:  true,
		}
	})

	var b strings.Builder
	metrics := map[string]float64{}
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %10s %9s %11s\n",
		"L2 loss", "legacy gap", "chained gap", "gap/bound", "in-bound", "zero-sum", "visited Δ")
	for li, lv := range levels {
		var agg cellOut
		inBound, zeroSum, vendorPaid, converged := 0, 0, 0, 0
		for seed := 0; seed < opt.Seeds; seed++ {
			cell := cells[li*opt.Seeds+seed]
			agg.legacyGap += cell.legacyGap
			agg.chainGap += cell.chainGap
			agg.boundFrac += cell.boundFrac
			agg.margin += cell.margin
			if cell.inBound {
				inBound++
			}
			if cell.zeroSum {
				zeroSum++
			}
			if cell.vendorPaid {
				vendorPaid++
			}
			if cell.converged {
				converged++
			}
		}
		sn := float64(opt.Seeds)
		fmt.Fprintf(&b, "%-8s %11.2f%% %11.2f%% %12.3f %8d/%d %7d/%d %10.2f%%\n",
			lv.name, agg.legacyGap/sn*100, agg.chainGap/sn*100, agg.boundFrac/sn,
			inBound, opt.Seeds, zeroSum, opt.Seeds, agg.margin/sn*100)
		metrics["roam_gap_pct_legacy_"+lv.name] = agg.legacyGap / sn * 100
		metrics["roam_gap_pct_chained_"+lv.name] = agg.chainGap / sn * 100
		metrics["roam_gap_bound_frac_"+lv.name] = agg.boundFrac / sn
		metrics["roam_in_bound_"+lv.name] = float64(inBound) / sn
		metrics["roam_zero_sum_"+lv.name] = float64(zeroSum) / sn
		metrics["roam_vendor_paid_"+lv.name] = float64(vendorPaid) / sn
		metrics["roam_converged_"+lv.name] = float64(converged) / sn
		metrics["roam_visited_margin_pct_"+lv.name] = agg.margin / sn * 100
	}

	wireOK, wireRuns := roamingWireCheck(opt.Seeds)
	verified, typed, runs := roamingByzantineBattery(opt.Seeds)
	fmt.Fprintf(&b, "wire check: %d/%d honest chains settled and re-verified\n", wireOK, wireRuns)
	fmt.Fprintf(&b, "byzantine battery: %d forged handovers, %d typed rejections, %d forged chains verified\n",
		runs, typed, verified)
	b.WriteString("(extension: multi-operator roaming settlement; not a paper figure)\n")
	metrics["roam_wire_ok"] = float64(wireOK)
	metrics["roam_wire_runs"] = float64(wireRuns)
	metrics["byz_chain_runs"] = float64(runs)
	metrics["byz_chain_typed_rejections"] = float64(typed)
	metrics["byz_chain_verified"] = float64(verified)

	return Result{ID: "roaming", Title: "Extension: multi-operator roaming and settlement", Text: b.String(), Metrics: metrics}
}

// roamKeys holds the roaming battery's shared RSA material, generated
// once from a seeded stream so the whole battery is replayable.
var roamKeys struct {
	once    sync.Once
	vendor  *poc.KeyPair
	visited *poc.KeyPair
	home    *poc.KeyPair
	err     error
}

func roamKeyTriple() (vendor, visited, home *poc.KeyPair, err error) {
	roamKeys.once.Do(func() {
		rng := sim.NewRNG(434343)
		if roamKeys.vendor, roamKeys.err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("vendor")); roamKeys.err != nil {
			return
		}
		if roamKeys.visited, roamKeys.err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("visited")); roamKeys.err != nil {
			return
		}
		roamKeys.home, roamKeys.err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("home"))
	})
	return roamKeys.vendor, roamKeys.visited, roamKeys.home, roamKeys.err
}

// roamWireConfig is one three-party wire run with the drop inside the
// visited network; the seed varies the truth.
func roamWireConfig(seed int64) (protocol.RoamingConfig, float64) {
	rng := sim.NewRNG(sim.SeedForCell(4500, 0, int(seed)))
	sent := math.Round(rng.Uniform(5e5, 1.5e6))
	delivered := math.Round(sent * (1 - rng.Uniform(0.02, 0.2)))
	vendor, visited, home, _ := roamKeyTriple()
	return protocol.RoamingConfig{
		Plan:            poc.Plan{TStart: 0, TEnd: int64(3600e9), C: 0.5},
		VendorKeys:      vendor,
		VisitedKeys:     visited,
		HomeKeys:        home,
		VendorStrategy:  core.HonestStrategy{},
		VisitedStrategy: core.HonestStrategy{},
		HomeStrategy:    core.HonestStrategy{},
		VendorView:      core.View{Sent: sent, Received: sent},
		VisitedViewA:    core.View{Sent: sent, Received: sent},
		HomeView:        core.View{Sent: sent, Received: delivered},
		RNG:             rng.Fork("wire"),
	}, delivered
}

// roamingWireCheck settles honest chains over the real signed
// protocol and re-verifies each accepted chain as a third party.
func roamingWireCheck(seeds int) (ok, runs int) {
	vendor, visited, home, err := roamKeyTriple()
	if err != nil {
		return 0, 1 // fail loud: 0/1 settled
	}
	for seed := 0; seed < seeds; seed++ {
		runs++
		cfg, _ := roamWireConfig(int64(seed))
		res, err := protocol.RunRoaming(cfg)
		if err != nil || res.Chain == nil {
			continue
		}
		if poc.ChainVerifyStateless(res.Chain, cfg.Plan, vendor.Public,
			[]*rsa.PublicKey{visited.Public}, home.Public) == nil {
			ok++
		}
	}
	return ok, runs
}

// roamingByzantineBattery runs every chain-level attack of the
// byzantine visited operator against a home operator with a
// persistent verifier. Scores: every handover must end in a typed
// chain rejection, and no forged chain may ever verify.
func roamingByzantineBattery(seeds int) (chainVerified, typedRejections, runs int) {
	vendor, visited, home, err := roamKeyTriple()
	if err != nil {
		return 1, 0, 0 // fail loud: a broken battery must not read as "0 verified"
	}
	for mi, mode := range roaming.ByzChainModes {
		for seed := 0; seed < seeds; seed++ {
			runs++
			verifier := poc.NewChainVerifier(vendor.Public,
				[]*rsa.PublicKey{visited.Public}, home.Public)

			// One honest settled cycle trains the verifier's replay set
			// and supplies the replay mode's stale material.
			honestCfg, _ := roamWireConfig(int64(1000 + seed))
			honestCfg.Verifier = verifier
			honest, err := protocol.RunRoaming(honestCfg)
			if err != nil {
				continue // counted as a run with no rejection: fails the pin
			}

			forger := &roaming.Forger{
				Mode:  mode,
				Keys:  visited,
				Stale: honest.Chain,
			}
			cfg, _ := roamWireConfig(int64(2000 + 100*mi + seed))
			cfg.Verifier = verifier
			cfg.Forge = forger.Forge
			_, err = protocol.RunRoaming(cfg)
			switch {
			case err == nil:
				chainVerified++
			case errors.Is(err, protocol.ErrBadChain):
				typedRejections++
			}
		}
	}
	return chainVerified, typedRejections, runs
}
