package experiment

import (
	"testing"
	"time"

	"tlc/internal/apps"
	"tlc/internal/core"
	"tlc/internal/faults"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// chaosSpec exercises all injectable fault families at once: bursty
// loss, duplication, reordering and delay spikes on the wire, an OFCS
// crash that loses its recent CDR tail, and a gateway meter restart
// mid-cycle.
func chaosSpec() *faults.Spec {
	return &faults.Spec{
		BurstP: 0.01, DupP: 0.005, ReorderP: 0.02, SpikeP: 0.005,
		OFCSCrashAt:   8 * time.Second,
		OFCSDowntime:  3 * time.Second,
		CDRLossWindow: 2 * time.Second,
		SPGWRestartAt: 16 * time.Second,
	}
}

func chaosConfig(seed int64) Config {
	return Config{
		App: apps.VRidgeGVSP, C: 0.5,
		Duration:       24 * time.Second,
		BackgroundMbps: 12,
		Seed:           seed,
		Faults:         chaosSpec(),
	}
}

// TestChaosFullCycle is the end-to-end chaos run: a full charging
// cycle under a seeded fault plan hitting every family, replayed
// twice to pin determinism, then settled over the real signed
// negotiation protocol. The settlement's PoC must verify and the
// billed volume must stay inside the game bound the records support.
func TestChaosFullCycle(t *testing.T) {
	r1 := NewTestbed(chaosConfig(42)).Run()
	r2 := NewTestbed(chaosConfig(42)).Run()

	// Every fault family actually fired.
	if r1.FaultDrops == 0 || r1.FaultDups == 0 || r1.FaultDelays == 0 {
		t.Fatalf("network faults did not fire: drops=%d dups=%d delays=%d",
			r1.FaultDrops, r1.FaultDups, r1.FaultDelays)
	}
	if r1.OFCSCrashes != 1 || r1.GatewayRestarts != 1 {
		t.Fatalf("component faults did not fire: crashes=%d restarts=%d",
			r1.OFCSCrashes, r1.GatewayRestarts)
	}
	if r1.LostCDRs == 0 {
		t.Fatal("OFCS crash lost no CDRs; loss window did not engage")
	}
	if r1.FaultTraceLen == 0 {
		t.Fatal("fault trace is empty")
	}

	// Same (seed, FaultPlan) → byte-identical trace and metrics.
	if r1.FaultTraceHash != r2.FaultTraceHash || r1.FaultTraceLen != r2.FaultTraceLen {
		t.Fatalf("fault trace diverged across identical runs: %016x/%d vs %016x/%d",
			r1.FaultTraceHash, r1.FaultTraceLen, r2.FaultTraceHash, r2.FaultTraceLen)
	}
	if r1.FaultDrops != r2.FaultDrops || r1.FaultDups != r2.FaultDups ||
		r1.FaultDelays != r2.FaultDelays || r1.LostCDRs != r2.LostCDRs ||
		r1.MeterLostBytes != r2.MeterLostBytes {
		t.Fatalf("fault metrics diverged: %+v vs %+v", r1, r2)
	}
	if r1.Truth != r2.Truth || r1.EdgeView != r2.EdgeView || r1.OpView != r2.OpView {
		t.Fatalf("cycle outputs diverged:\n%+v\n%+v", r1, r2)
	}

	// Settle the cycle over the signed protocol path.
	edgeKeys, opKeys, err := byzKeyPairs()
	if err != nil {
		t.Fatal(err)
	}
	plan := poc.Plan{TStart: 0, TEnd: int64(24 * time.Second), C: 0.5}
	rng := sim.NewRNG(4242)
	edge := &protocol.Party{
		Role: poc.RoleEdge, Plan: plan,
		Keys: edgeKeys, PeerKey: opKeys.Public,
		Strategy:  core.OptimalStrategy{},
		View:      core.View{Sent: r1.EdgeView.Sent, Received: r1.EdgeView.Received},
		RNG:       rng.Fork("edge"),
		MaxRounds: 256,
	}
	op := &protocol.Party{
		Role: poc.RoleOperator, Plan: plan,
		Keys: opKeys, PeerKey: edgeKeys.Public,
		Strategy:  core.OptimalStrategy{},
		View:      core.View{Sent: r1.OpView.Sent, Received: r1.OpView.Received},
		RNG:       rng.Fork("op"),
		MaxRounds: 256,
	}
	ri, ro, err := protocol.RunPair(edge, op)
	if err != nil {
		t.Fatalf("settlement under chaos failed: %v", err)
	}
	if ri.X != ro.X {
		t.Fatalf("parties settled on different volumes: %d vs %d", ri.X, ro.X)
	}
	proof := ri.PoC
	if proof == nil {
		proof = ro.PoC
	}
	if proof == nil {
		t.Fatal("settlement produced no proof of charge")
	}
	if err := poc.VerifyStateless(proof, plan, edgeKeys.Public, opKeys.Public); err != nil {
		t.Fatalf("settlement PoC does not verify: %v", err)
	}

	// Billed volume within the game bound the records support. Faults
	// corrupt the records themselves (the OFCS crash destroys part of
	// the operator's metered view), so the honest guarantee is against
	// the views as presented: the settlement never escapes the span of
	// what either party could support.
	const tol = core.DefaultTolerance
	lo := min(r1.EdgeView.Sent, r1.EdgeView.Received, r1.OpView.Sent, r1.OpView.Received) * (1 - tol)
	hi := max(r1.EdgeView.Sent, r1.EdgeView.Received, r1.OpView.Sent, r1.OpView.Received) * (1 + tol)
	x := float64(ri.X)
	if x < lo-1 || x > hi+1 {
		t.Fatalf("billed X=%v escapes game bound [%v, %v] (edge view %+v, op view %+v)",
			x, lo, hi, r1.EdgeView, r1.OpView)
	}
}

// TestChaosZeroSpecIsInert pins that a nil fault config changes
// nothing: the golden-compatible no-fault run and an explicit
// zero-spec run produce identical cycles (every RNG fork gate stays
// closed).
func TestChaosZeroSpecIsInert(t *testing.T) {
	base := chaosConfig(7)
	base.Faults = nil
	zero := chaosConfig(7)
	zero.Faults = &faults.Spec{}

	r1 := NewTestbed(base).Run()
	r2 := NewTestbed(zero).Run()
	if r1.Truth != r2.Truth || r1.EdgeView != r2.EdgeView || r1.OpView != r2.OpView {
		t.Fatalf("zero fault spec perturbed the cycle:\n%+v\n%+v", r1, r2)
	}
	if r2.FaultTraceLen != 0 || r2.FaultDrops != 0 {
		t.Fatalf("zero spec injected faults: trace=%d drops=%d", r2.FaultTraceLen, r2.FaultDrops)
	}
}

// TestChaosDurableLedgerRecovery runs the chaos cycle twice — once
// ledger-less, once with the durable CDR ledger attached — and pins
// the recovery contract: the durable run recovers exactly the CDRs
// the ledger-less run rolled out of the crash loss window, leaves no
// window residue (SyncEvery=1 makes every append durable), and
// perturbs nothing at the packet level (the OFCS is a passive sink,
// so ground truth and both views stay identical).
func TestChaosDurableLedgerRecovery(t *testing.T) {
	base := chaosConfig(42)
	dur := chaosConfig(42)
	dur.DurableLedger = true

	rb := NewTestbed(base).Run()
	rd := NewTestbed(dur).Run()

	if rb.Truth != rd.Truth || rb.EdgeView != rd.EdgeView || rb.OpView != rd.OpView {
		t.Fatalf("durable ledger perturbed the cycle:\nbase %+v\ndur  %+v", rb, rd)
	}
	if rb.FaultTraceHash == rd.FaultTraceHash {
		t.Fatal("fault traces identical; restart recovery line never emitted")
	}
	if rb.LostCDRs == 0 {
		t.Fatal("ledger-less run lost no CDRs; the crash window did not engage")
	}
	// The window loss the ledger-less twin suffered is the recovery
	// target; records discarded while the OFCS was down are lost in
	// both runs (the collector was not there to append them).
	window := rb.LostCDRs - (rd.LostCDRs - rd.LostWindowCDRs)
	if rd.RecoveredCDRs != window {
		t.Fatalf("recovered %d CDRs, want the pre-crash loss window %d (base lost %d, dur lost %d, dur window %d)",
			rd.RecoveredCDRs, window, rb.LostCDRs, rd.LostCDRs, rd.LostWindowCDRs)
	}
	if rd.LostWindowCDRs != 0 {
		t.Fatalf("with SyncEvery=1 every append is durable, yet %d window CDRs stayed lost", rd.LostWindowCDRs)
	}
	if rd.RecoveredCDRs == 0 {
		t.Fatal("nothing recovered; ledger never engaged")
	}
}

// TestFaultsParallelWorkerParity pins that the fault sweep is
// schedule-independent: the same cells swept sequentially and on a
// 4-worker pool produce byte-identical traces and metrics. (The name
// keeps it inside verify.sh's dedicated -run Parallel race pass.)
func TestFaultsParallelWorkerParity(t *testing.T) {
	levels := faultLevels()
	var cfgs []Config
	for li, lv := range levels {
		for seed := 0; seed < 2; seed++ {
			cfgs = append(cfgs, Config{
				App: apps.VRidgeGVSP, C: 0.5,
				Duration:       6 * time.Second,
				BackgroundMbps: 12,
				Seed:           sim.SeedForCell(4200, li, seed),
				Faults:         lv.spec(6 * time.Second),
			})
		}
	}
	type out struct {
		traceHash      uint64
		traceLen       int
		drops, dups    uint64
		lostCDRs       int
		truth          struct{ Sent, Received float64 }
		meterLostBytes uint64
	}
	run := func(workers int) []out {
		return Sweep(cfgs, workers, func(cfg Config) out {
			r := NewTestbed(cfg).Run()
			o := out{
				traceHash: r.FaultTraceHash, traceLen: r.FaultTraceLen,
				drops: r.FaultDrops, dups: r.FaultDups,
				lostCDRs:       r.LostCDRs,
				meterLostBytes: r.MeterLostBytes,
			}
			o.truth = r.Truth
			return o
		})
	}
	seq := run(0)
	par := run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("cell %d diverged across worker counts:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
}
