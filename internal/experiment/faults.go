package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tlc/internal/apps"
	"tlc/internal/core"
	"tlc/internal/faults"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// faultLevel is one intensity point of the fault sweep. Component
// fault times are fractions of the cycle so the sweep scales with
// Options.Duration.
type faultLevel struct {
	name string
	spec func(d time.Duration) *faults.Spec
}

func faultLevels() []faultLevel {
	return []faultLevel{
		{"none", func(time.Duration) *faults.Spec { return nil }},
		{"light", func(time.Duration) *faults.Spec {
			return &faults.Spec{BurstP: 0.002, DupP: 0.002, ReorderP: 0.01}
		}},
		{"moderate", func(d time.Duration) *faults.Spec {
			return &faults.Spec{
				BurstP: 0.01, DupP: 0.01, ReorderP: 0.03, SpikeP: 0.005,
				OFCSCrashAt:   d / 3,
				OFCSDowntime:  d / 6,
				CDRLossWindow: 2 * time.Second,
			}
		}},
		{"heavy", func(d time.Duration) *faults.Spec {
			return &faults.Spec{
				BurstP: 0.03, BurstLen: 12, DupP: 0.02, ReorderP: 0.05,
				SpikeP:        0.01,
				OFCSCrashAt:   d / 3,
				OFCSDowntime:  d / 6,
				CDRLossWindow: 3 * time.Second,
				SPGWRestartAt: 2 * d / 3,
			}
		}},
	}
}

// Faults sweeps fault-injection intensity over full charging cycles
// and then runs the byzantine battery over the signed negotiation
// protocol. It answers two questions the paper's fault-free
// experiments leave open: does the charging gap stay bounded when the
// infrastructure itself misbehaves (crashed OFCS, restarted meters,
// bursty links), and does the proof chain keep every forged or
// replayed settlement out (byz_forged_verified must be 0).
func Faults(opt Options) Result {
	opt = opt.withDefaults()
	levels := faultLevels()

	// Cell (li, seed) at index li*Seeds+seed.
	var cfgs []Config
	for li, lv := range levels {
		for seed := 0; seed < opt.Seeds; seed++ {
			cfgs = append(cfgs, Config{
				App: apps.VRidgeGVSP, C: 0.5,
				Duration:       opt.Duration,
				BackgroundMbps: 12,
				Seed:           sim.SeedForCell(4200, li, seed),
				Faults:         lv.spec(opt.Duration),
			})
		}
	}
	type cellOut struct {
		legacy, optimal float64
		drops, dups     uint64
		delays          uint64
		lostCDRs        int
		crashes         int
		meterLost       uint64
		inBounds        bool
		converged       bool
		truthSent       float64
		truthRecv       float64
	}
	const tol = core.DefaultTolerance
	cells := Sweep(cfgs, opt.Workers, func(cfg Config) cellOut {
		r := NewTestbed(cfg).Run()
		best := Evaluate(r, SchemeOptimal, cfg.Seed+1)
		// Faults corrupt the records themselves (an OFCS crash can
		// destroy part of the operator's metered view), so the bound
		// the settlement guarantees is the span of the views as
		// presented, not of the uncorrupted ground truth.
		lo := min(r.EdgeView.Sent, r.EdgeView.Received, r.OpView.Sent, r.OpView.Received) * (1 - tol)
		hi := max(r.EdgeView.Sent, r.EdgeView.Received, r.OpView.Sent, r.OpView.Received) * (1 + tol)
		return cellOut{
			legacy:    Evaluate(r, SchemeLegacy, cfg.Seed+1).Epsilon,
			optimal:   best.Epsilon,
			drops:     r.FaultDrops,
			dups:      r.FaultDups,
			delays:    r.FaultDelays,
			lostCDRs:  r.LostCDRs,
			crashes:   r.OFCSCrashes,
			meterLost: r.MeterLostBytes,
			inBounds:  best.Converged && best.X >= lo-1e-6 && best.X <= hi+1e-6,
			converged: best.Converged,
			truthSent: r.Truth.Sent,
			truthRecv: r.Truth.Received,
		}
	})

	// Durable-ledger twin sweep: re-run the crashing levels with a
	// ledger attached (synced on every append) and the same per-cell
	// seeds. The ledger must not perturb the packet-level simulation
	// (ground truth byte-identical to the twin above), and the
	// restart must replay exactly the pre-crash loss window:
	// recovered == twin's lost - durable's residual lost.
	type durOut struct {
		recovered  int
		lostWindow int
		lost       int
		truthSent  float64
		truthRecv  float64
	}
	var durLevels []int
	var durCfgs []Config
	for li, lv := range levels {
		spec := lv.spec(opt.Duration)
		if spec == nil || spec.OFCSCrashAt == 0 {
			continue
		}
		durLevels = append(durLevels, li)
		for seed := 0; seed < opt.Seeds; seed++ {
			cfg := cfgs[li*opt.Seeds+seed]
			cfg.DurableLedger = true
			durCfgs = append(durCfgs, cfg)
		}
	}
	durCells := Sweep(durCfgs, opt.Workers, func(cfg Config) durOut {
		r := NewTestbed(cfg).Run()
		return durOut{
			recovered:  r.RecoveredCDRs,
			lostWindow: r.LostWindowCDRs,
			lost:       r.LostCDRs,
			truthSent:  r.Truth.Sent,
			truthRecv:  r.Truth.Received,
		}
	})

	var b strings.Builder
	metrics := map[string]float64{}
	fmt.Fprintf(&b, "%-10s %8s %8s %9s %9s | %12s %12s %10s\n",
		"intensity", "drops", "dups", "lost CDR", "crashes", "legacy ε", "optimal ε", "in-bounds")
	for li, lv := range levels {
		var agg cellOut
		inBounds, converged := 0, 0
		for seed := 0; seed < opt.Seeds; seed++ {
			cell := cells[li*opt.Seeds+seed]
			agg.legacy += cell.legacy
			agg.optimal += cell.optimal
			agg.drops += cell.drops
			agg.dups += cell.dups
			agg.delays += cell.delays
			agg.lostCDRs += cell.lostCDRs
			agg.crashes += cell.crashes
			agg.meterLost += cell.meterLost
			if cell.inBounds {
				inBounds++
			}
			if cell.converged {
				converged++
			}
		}
		n := float64(opt.Seeds)
		fmt.Fprintf(&b, "%-10s %8.0f %8.0f %9.1f %9.1f | %11.2f%% %11.2f%% %8d/%d\n",
			lv.name, float64(agg.drops)/n, float64(agg.dups)/n,
			float64(agg.lostCDRs)/n, float64(agg.crashes)/n,
			agg.legacy/n*100, agg.optimal/n*100, inBounds, opt.Seeds)
		metrics["eps_pct_legacy_"+lv.name] = agg.legacy / n * 100
		metrics["eps_pct_optimal_"+lv.name] = agg.optimal / n * 100
		metrics["fault_drops_"+lv.name] = float64(agg.drops) / n
		metrics["lost_cdrs_"+lv.name] = float64(agg.lostCDRs) / n
		metrics["billed_in_bounds_"+lv.name] = float64(inBounds) / n
		metrics["converged_"+lv.name] = float64(converged) / n
	}

	for di, li := range durLevels {
		lv := levels[li]
		exact := 0
		var recovered, window, residual float64
		for seed := 0; seed < opt.Seeds; seed++ {
			twin := cells[li*opt.Seeds+seed]
			dur := durCells[di*opt.Seeds+seed]
			// twin.lostCDRs = window + while-down; dur.lost =
			// torn tail (0 at SyncEvery=1) + while-down. The
			// difference is the pre-crash loss window.
			win := twin.lostCDRs - (dur.lost - dur.lostWindow)
			recovered += float64(dur.recovered)
			window += float64(win)
			residual += float64(dur.lost)
			if dur.recovered+dur.lostWindow == win &&
				dur.lostWindow == 0 &&
				dur.truthSent == twin.truthSent && dur.truthRecv == twin.truthRecv {
				exact++
			}
		}
		n := float64(opt.Seeds)
		fmt.Fprintf(&b, "durable ledger %-8s: recovered %.1f of %.1f window CDRs/run, residual lost %.1f, exact %d/%d\n",
			lv.name, recovered/n, window/n, residual/n, exact, opt.Seeds)
		metrics["recovered_records_"+lv.name] = recovered / n
		metrics["window_records_"+lv.name] = window / n
		metrics["ledger_recovery_exact_"+lv.name] = float64(exact) / n
	}

	forged, typed, runs := byzantineBattery(opt.Seeds)
	fmt.Fprintf(&b, "byzantine battery: %d exchanges, %d typed rejections, %d forged proofs verified\n",
		runs, typed, forged)
	b.WriteString("(extension: fault-injection sweep + adversarial battery; not a paper figure)\n")
	metrics["byz_runs"] = float64(runs)
	metrics["byz_typed_rejections"] = float64(typed)
	metrics["byz_forged_verified"] = float64(forged)

	return Result{ID: "faults", Title: "Extension: charging gap under injected faults", Text: b.String(), Metrics: metrics}
}

// byzKeys holds the battery's shared RSA material. Key generation is
// the dominant cost, so the pair is built once and reused; the keys
// themselves are deterministic (seeded RNG), keeping the whole
// battery replayable.
var byzKeys struct {
	once sync.Once
	edge *poc.KeyPair
	op   *poc.KeyPair
	err  error
}

func byzKeyPairs() (*poc.KeyPair, *poc.KeyPair, error) {
	byzKeys.once.Do(func() {
		rng := sim.NewRNG(424242)
		byzKeys.edge, byzKeys.err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("edge"))
		if byzKeys.err != nil {
			return
		}
		byzKeys.op, byzKeys.err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("op"))
	})
	return byzKeys.edge, byzKeys.op, byzKeys.err
}

// byzantineBattery runs every adversarial mode against an honest edge
// over an in-memory connection and scores the outcome: every exchange
// must end in a typed rejection, and no frame the adversary sent may
// ever verify as a proof of charge — statelessly for forgeries,
// statefully (replay set) for replayed genuine proofs.
func byzantineBattery(seeds int) (forgedVerified, typedRejections, runs int) {
	edgeKeys, opKeys, err := byzKeyPairs()
	if err != nil {
		return 1, 0, 0 // fail loud: a broken battery must not read as "0 forged"
	}
	plan := poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5}

	// One genuine proof from an earlier "cycle" for the replay mode.
	staleRNG := sim.NewRNG(7)
	staleCDR, err := poc.BuildCDR(plan, poc.RoleEdge, 0, 800_000, staleRNG, edgeKeys.Private)
	if err != nil {
		return 1, 0, 0
	}
	staleCDA, err := poc.BuildCDA(plan, poc.RoleOperator, 0,
		poc.RoundVolume(core.Charge(plan.C, 800_000, 700_000)), staleCDR, staleRNG, opKeys.Private)
	if err != nil {
		return 1, 0, 0
	}
	stale, err := poc.BuildPoC(staleCDA, edgeKeys.Private)
	if err != nil {
		return 1, 0, 0
	}

	// The stateful verifier has already accepted the stale proof, as
	// the operator's billing backend would have in the earlier cycle.
	verifier := poc.NewVerifier(edgeKeys.Public, opKeys.Public)
	if err := verifier.Verify(stale, plan); err != nil {
		return 1, 0, 0
	}

	for mi, mode := range []string{protocol.ByzInflate, protocol.ByzReplay, protocol.ByzTamper} {
		for seed := 0; seed < seeds; seed++ {
			runs++
			rng := sim.NewRNG(sim.SeedForCell(4300, mi, seed))
			sent := rng.Uniform(5e8, 1.5e9)
			received := sent * (1 - rng.Uniform(0.02, 0.2))

			edge := &protocol.Party{
				Role: poc.RoleEdge, Plan: plan,
				Keys: edgeKeys, PeerKey: opKeys.Public,
				Strategy: core.HonestStrategy{},
				View:     core.View{Sent: sent, Received: received},
				RNG:      rng.Fork("edge"),
			}
			byz := &protocol.Byzantine{
				Mode: mode, Role: poc.RoleOperator, Plan: plan,
				Keys: opKeys, PeerKey: edgeKeys.Public,
				RNG:    rng.Fork("byz"),
				Volume: poc.RoundVolume(sent * 3),
				Stale:  stale,
			}

			wire := &byzWire{byz: byz}
			_, runErr := edge.Run(wire, true)

			if runErr != nil && (errors.Is(runErr, protocol.ErrBadPeer) ||
				errors.Is(runErr, protocol.ErrBadMessage) ||
				errors.Is(runErr, protocol.ErrStaleProof)) {
				typedRejections++
			}
			for _, frame := range wire.sent {
				if len(frame) == 0 || frame[0] != 3 {
					continue
				}
				var p poc.PoC
				if p.UnmarshalBinary(frame) != nil {
					continue
				}
				// A replayed genuine proof passes stateless checks by
				// construction; the backstop is the replay set.
				if mode == protocol.ByzReplay {
					if verifier.Verify(&p, plan) == nil {
						forgedVerified++
					}
					continue
				}
				if poc.VerifyStateless(&p, plan, edgeKeys.Public, opKeys.Public) == nil {
					forgedVerified++
				}
			}
		}
	}
	return forgedVerified, typedRejections, runs
}

// byzWire is the honest edge's connection to a byzantine responder,
// in memory: the first whole frame the edge writes is answered at
// once, so the exchange runs on the caller's goroutine. Once the
// responder's frames are read, the edge reads io.EOF, as from a peer
// that hung up.
type byzWire struct {
	byz      *protocol.Byzantine
	in       []byte       // what the edge wrote before the answer
	answered bool         // the responder has answered
	out      bytes.Buffer // the responder's framed answer
	sent     [][]byte     // the frames the responder sent
}

func (w *byzWire) Write(p []byte) (int, error) {
	if w.answered {
		return len(p), nil
	}
	w.in = append(w.in, p...)
	opening, err := protocol.ReadFrame(bytes.NewReader(w.in))
	if err != nil {
		return len(p), nil // not a whole frame yet
	}
	w.answered = true
	// A responder that fails sends nothing, and the edge reads EOF.
	w.sent, _ = w.byz.Respond(opening)
	for _, frame := range w.sent {
		if err := protocol.WriteFrame(&w.out, frame); err != nil {
			return len(p), err
		}
	}
	return len(p), nil
}

func (w *byzWire) Read(p []byte) (int, error) { return w.out.Read(p) }
