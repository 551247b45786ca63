package experiment

import (
	"fmt"
	"strings"
	"time"

	"tlc/internal/apps"
	"tlc/internal/core"
	"tlc/internal/netem"
	"tlc/internal/sim"
	"tlc/internal/transport"
)

// Retransmission is an extension experiment quantifying §3.1's gap
// cause (4): spurious transport-layer retransmission. A reliable
// transfer crosses a metered link; an aggressive retransmission timer
// re-sends segments whose originals were merely slow, and every copy
// is charged while the application receives each byte once.
func Retransmission(opt Options) Result {
	opt = opt.withDefaults()
	rtos := []time.Duration{500 * time.Millisecond, 130 * time.Millisecond,
		100 * time.Millisecond, 80 * time.Millisecond}
	type cellOut struct {
		charged, received, rtx float64
	}
	// Each cell builds a private sender/receiver/link stack on its
	// own scheduler, so the RTO sweep fans out like the testbed grid.
	cells := Sweep(rtos, opt.Workers, func(rto time.Duration) cellOut {
		s := sim.NewScheduler()
		ids := &netem.IDGen{}
		snd := transport.NewSender(s, ids, nil, "bulk", imsi)
		snd.RTO = rto
		rcv := transport.NewReceiver(s, snd)
		// Gateway meter in front of a slow-ish path (80ms one way,
		// modest rate so window position adds queueing jitter): the
		// real testbed's metering point.
		link := netem.NewLink("path", s, 20e6, 80*time.Millisecond, 1<<20, rcv)
		gw := netem.NewMeter("gw", s, link)
		snd.Dst = gw
		snd.Transfer(2000, nil)
		s.RunUntil(3 * time.Minute)
		_, _, rtx, _ := snd.Stats()
		return cellOut{
			charged:  float64(gw.TotalBytes()),
			received: float64(rcv.UniqueBytes()),
			rtx:      float64(rtx),
		}
	})
	var b strings.Builder
	metrics := map[string]float64{}
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s\n",
		"RTO", "charged(MB)", "received(MB)", "rtx(MB)", "over-charge")
	for ri, rto := range rtos {
		cell := cells[ri]
		over := 0.0
		if cell.received > 0 {
			over = (cell.charged - cell.received) / cell.received
		}
		fmt.Fprintf(&b, "%-10s %12.2f %12.2f %12.2f %11.1f%%\n",
			rto, cell.charged/1e6, cell.received/1e6, cell.rtx/1e6, over*100)
		metrics["overcharge_pct_"+rto.String()] = over * 100
	}
	b.WriteString("(extension: §3.1 cause 4 — spurious retransmissions are charged, received once)\n")
	return Result{ID: "retransmission", Title: "Extension: over-charging from spurious retransmission", Text: b.String(), Metrics: metrics}
}

// Strawman reproduces §5.4's monitor comparison: how each candidate
// downlink charging record fares against a selfish edge that ships a
// modified OS image, versus the RRC COUNTER CHECK record TLC adopts.
func Strawman(opt Options) Result {
	opt = opt.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %12s\n", "operator downlink monitor", "recorded (MB)", "error")
	tamper := 0.5 // the edge under-reports half its received traffic

	tb := NewTestbed(Config{
		App: apps.VRidgeGVSP, Seed: 5400, C: 0.5, Duration: opt.Duration,
	})
	r := tb.Run()
	truth := r.Truth.Received

	metrics := map[string]float64{}
	row := func(name, key string, recorded float64) {
		err := 0.0
		if truth > 0 {
			err = (recorded - truth) / truth
		}
		fmt.Fprintf(&b, "%-34s %14.2f %11.1f%%\n", name, recorded/1e6, err*100)
		metrics["recorded_mb_"+key] = recorded / 1e6
		metrics["record_err_"+key] = err
	}

	// Strawman 1: user-space monitor reading the OS API over the
	// operator's cycle window. The selfish edge's modified OS image
	// scales what that TrafficStats-style API reports by tamper.
	opW := tb.OpClock.ObservedWindow(tb.Plan())
	trueWindowed := tb.DevAppRecv.BytesInWindow(opW.Start, opW.End)
	strawman1 := trueWindowed * tamper
	row("strawman 1: user-space API", "strawman1", strawman1)
	// Strawman 2: system monitor with root — inspects every packet
	// the device consumes over the operator's cycle window
	// (accurate, but needs root and raises privacy concerns, §5.4).
	row("strawman 2: root system monitor", "strawman2", trueWindowed)
	// TLC: RRC COUNTER CHECK against the hardware modem — accurate
	// *without* system privilege.
	opView := tb.OpMon.View(tb.Plan(), netem.Downlink)
	row("TLC: RRC COUNTER CHECK", "tlc_rrc", opView.Received)

	// Revenue impact: an operator trusting the strawman-1 record
	// settles against an edge whose monitors tell the same lie — the
	// under-claim sails through every cross-check.
	tamperedView := core.View{
		Sent:     r.OpView.Sent * tamper,
		Received: strawman1,
	}
	out, err := core.Negotiate(core.Config{
		C:        0.5,
		Edge:     core.HonestStrategy{},
		Operator: core.HonestStrategy{},
		EdgeView: core.View{
			Sent:     r.EdgeView.Sent * tamper,
			Received: r.EdgeView.Received * tamper,
		},
		OperatorView: tamperedView,
		RNG:          sim.NewRNG(5401),
		MaxRounds:    256,
	})
	if err == nil && out.Converged && r.XHat > 0 {
		lossFrac := (r.XHat - out.X) / r.XHat
		fmt.Fprintf(&b, "\nwith strawman 1 the settled charge drops to %.2f MB (%.0f%% operator revenue loss);\n",
			out.X/1e6, lossFrac*100)
		fmt.Fprintf(&b, "with the RRC record the operator's cross-check rejects the under-claim instead.\n")
		metrics["revenue_loss_frac"] = lossFrac
	}
	return Result{ID: "strawman", Title: "§5.4: tamper resilience of candidate charging records", Text: b.String(), Metrics: metrics}
}
