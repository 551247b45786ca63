// Package experiment assembles the full emulated testbed of Figure 11
// — edge device, Qualcomm-small-cell-like RAN, OpenEPC-like core,
// co-located edge server — runs charging cycles over it, and contains
// one runner per table/figure of the paper's evaluation (§7).
//
// Topology and drop placement (see DESIGN.md for the rationale):
//
//	UL: device app → modem → UL air (gated, small pre-meter residual)
//	    → SPGW meter → core bridge (post-meter: congestion queue +
//	    residual) → operator server-port monitor → server app
//	DL: server app → SPGW meter (QCI stamp, detach drop) → core
//	    bridge (congestion queue) → DL air (gated, RSS loss, queue)
//	    → modem → device app
//
// Background iperf-style traffic shares the core bridge and the DL
// air interface, so congestion drops land after the metering point —
// the §3.1 "dropped after being charged by the gateway" gap source.
package experiment

import (
	"fmt"
	"time"

	"tlc/internal/apps"
	"tlc/internal/device"
	"tlc/internal/epc"
	"tlc/internal/faults"
	"tlc/internal/ledger"
	"tlc/internal/monitor"
	"tlc/internal/netem"
	"tlc/internal/ran"
	"tlc/internal/sim"
	"tlc/internal/simclock"
	"tlc/internal/trace"
)

// Config parameterises one charging cycle on the testbed.
type Config struct {
	// App is the workload profile (apps.Workloads).
	App apps.Profile
	// Duration is the charging cycle length in simulated time. The
	// paper uses 1-hour cycles; experiments default to 60s and
	// scale reported volumes to per-hour.
	Duration time.Duration
	// Seed drives all randomness deterministically.
	Seed int64
	// C is the data plan's lost-data weight.
	C float64

	// BackgroundMbps is iperf-style UDP cross traffic (Figure 3/13).
	BackgroundMbps float64

	// RSS configures the radio signal; zero value means good radio.
	RSS RSSSpec

	// NTPPrecision is the clock sync residual sigma for both
	// parties (§7.2 record errors); default 500ms.
	NTPPrecision time.Duration

	// EdgeTamper scales the edge's reported records (<1 =
	// under-claiming via a tampered monitor); 0 or 1 = honest.
	EdgeTamper float64

	// InternetLoss moves the edge server out of the operator's
	// infrastructure (Appendix D's generic charging): downlink
	// packets are lost with this probability between the server and
	// the 4G/5G core, upstream of the gateway meter.
	InternetLoss float64

	// AirQueueBytes overrides the eNodeB buffer size (ablation:
	// outage tolerance vs latency); 0 uses the default.
	AirQueueBytes int

	// CounterCheckPeriod overrides the operator's periodic RRC
	// COUNTER CHECK polling interval (ablation: per-release checks
	// vs periodic polling); 0 uses the default 10s.
	CounterCheckPeriod time.Duration

	// HandoverMeanInterval enables link-layer mobility: the device
	// hands over between cells with this mean period, losing
	// source-cell-buffered data (§3.1's mobility gap cause). Zero
	// disables handovers.
	HandoverMeanInterval time.Duration

	// UseTraceReplay drives the cycle by replaying a pre-recorded
	// packet trace of the workload instead of the live generator —
	// the paper's tcpdump/tcprelay methodology for the VR and gaming
	// datasets.
	UseTraceReplay bool

	// Faults, when non-nil and non-zero, attaches the deterministic
	// fault-injection subsystem (internal/faults): per-packet network
	// faults on the downlink air and core bridge, plus scheduled OFCS
	// crash and SPGW meter restart. A nil pointer (the zero Config)
	// leaves every RNG fork and golden output byte-identical to a
	// fault-free build.
	Faults *faults.Spec

	// DurableLedger attaches a crash-consistent charging ledger
	// (internal/ledger over an in-memory page-cache model) to the
	// OFCS: collected CDRs are logged, an injected OFCS crash drops
	// the log's unsynced tail with the page cache, and the restart
	// replays the loss window back instead of only counting it. The
	// OFCS is a passive sink in this testbed, so the packet-level
	// outputs (truth, views, ε) stay byte-identical with the ledger
	// on or off — only the CDR loss accounting changes.
	DurableLedger bool
	// LedgerSyncEvery is the ledger's group-commit window when
	// DurableLedger is set; 0 means sync every append (no loss).
	LedgerSyncEvery int
}

// RSSSpec describes the signal strength process.
type RSSSpec struct {
	// Base RSS in dBm; 0 means -90 (good radio).
	Base float64
	// MeanGap/MeanOutage configure intermittent connectivity
	// (exponential outage process); both zero disables outages.
	MeanGap    time.Duration
	MeanOutage time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Duration <= 0 {
		out.Duration = 60 * time.Second
	}
	if out.RSS.Base == 0 {
		out.RSS.Base = -90
	}
	if out.NTPPrecision == 0 {
		out.NTPPrecision = 200 * time.Millisecond
	}
	if out.App.Name == "" {
		out.App = apps.WebCamUDP
	}
	return out
}

// offeredLoad is the traffic the cycle offers in bits: the app's
// nominal bitrate plus the background cross traffic, over the cycle.
// The sweep engine dispatches heavier cells first by it.
func (c *Config) offeredLoad() float64 {
	d := c.withDefaults()
	return (d.App.AvgBitrate() + d.BackgroundMbps*1e6) * d.Duration.Seconds()
}

// Link/loss parameters of the emulated testbed, tuned so the legacy
// charging-gap ratios land in the paper's regimes (§3.2's 6.7-8.3%
// baseline, growing past 20% under heavy congestion).
const (
	// cellCapacityBps is the combined virtualised-core + cell
	// processing capacity modelled by the LoadDropper.
	cellCapacityBps = 160e6
	// bridgeRateBps is the wiring rate of the core bridge link
	// (post-thinning, so it rarely queues in steady state).
	bridgeRateBps = 400e6
	// bridgeQueueBytes bounds the bridge queue.
	bridgeQueueBytes = 192 << 10
	// dlAirRateBps is the shared downlink air capacity of the 20MHz
	// FDD cell.
	dlAirRateBps = 170e6
	// ulAirRateBps is the uplink air capacity.
	ulAirRateBps = 50e6
	// airQueueBytes is the eNodeB buffer absorbing short outages.
	airQueueBytes = 256 << 10
	// dlAirResidualLoss is the residual downlink air-interface loss
	// in good radio (post-meter).
	dlAirResidualLoss = 0.075
	// ulAirResidualLoss is the (pre-meter) uplink air residual.
	ulAirResidualLoss = 0.005
	// bridgeULResidualLoss is the post-meter uplink residual in the
	// virtualised core; it reproduces the paper's uplink baseline
	// gap (§3.1's "dropped after being charged by the gateway").
	bridgeULResidualLoss = 0.07
	// imsi identifies the single edge device under test.
	imsi = "001011132547648"
)

// EventsFired returns the cumulative count of simulator events
// executed in this process (including parallel sweep workers), read
// from the process-wide metrics registry. cmd/tlcbench diffs it
// around each experiment to report events_fired / events_per_sec /
// allocs_per_event.
func EventsFired() uint64 { return sim.EventsFiredTotal() }

// Testbed is one fully wired emulation instance.
type Testbed struct {
	Cfg   Config
	Sched *sim.Scheduler
	RNG   *sim.RNG
	IDs   *netem.IDGen
	// Pool recycles packet structs across the whole topology: the
	// sources draw from it and every terminal sink and drop site
	// returns to it, so a steady-state cycle allocates no packets.
	Pool *netem.PacketPool

	HSS  *epc.HSS
	PCRF *epc.PCRF
	MME  *epc.MME
	SPGW *epc.SPGW
	OFCS *epc.OFCS

	Radio *ran.Radio
	BS    *ran.BaseStation

	Modem *device.Modem

	Streamer *apps.Streamer
	Replayer *trace.Replayer

	// Application-level meters (ground truth and party records).
	DevAppSent *netem.Meter // device app egress (UL x̂e)
	DevAppRecv *netem.Meter // device app ingress (DL x̂o)
	SrvAppSent *netem.Meter // server app egress (DL x̂e)
	SrvAppRecv *netem.Meter // server app ingress (UL x̂o)
	SrvIngress *netem.Meter // operator's server-port monitor

	EdgeClock *simclock.Clock
	OpClock   *simclock.Clock

	EdgeMon *monitor.EdgeMonitor
	OpMon   *monitor.OperatorMonitor

	DLAir    *netem.Link
	ULAir    *netem.Link
	Bridge   *netem.Link
	Dropper  *netem.LoadDropper
	Bearers  *epc.BearerTable
	Handover *ran.HandoverModel

	// FaultTrace is non-nil exactly when Cfg.Faults is active; it
	// records every injected fault for the determinism pin.
	FaultTrace      *faults.Trace
	NetFaultsDL     *faults.NetFaults
	NetFaultsBridge *faults.NetFaults
	faultSpec       faults.Spec

	bgSources []*netem.TrafficSource
	rssModel  ran.RSSModel
}

// NewTestbed wires the full topology for the config.
func NewTestbed(cfg Config) *Testbed {
	cfg = cfg.withDefaults()
	tb := &Testbed{
		Cfg:   cfg,
		Sched: sim.NewScheduler(),
		RNG:   sim.NewRNG(cfg.Seed),
		IDs:   &netem.IDGen{},
		Pool:  &netem.PacketPool{},
	}
	s := tb.Sched

	// Control plane.
	tb.HSS = epc.NewHSS()
	tb.HSS.Register(&epc.Subscriber{IMSI: imsi, DefaultQCI: 9})
	tb.PCRF = epc.NewPCRF()
	if cfg.App.QCI != 9 && cfg.App.QCI != 0 {
		tb.PCRF.Install(epc.PolicyRule{Flow: cfg.App.Name, QCI: cfg.App.QCI})
	}
	tb.MME = epc.NewMME(s)
	tb.MME.Attach(imsi)
	tb.SPGW = epc.NewSPGW(s, "192.168.2.11", tb.MME, tb.PCRF)
	tb.SPGW.Pool = tb.Pool
	tb.SPGW.MeterHorizon = cfg.Duration + 2*time.Second
	tb.OFCS = epc.NewOFCS()
	tb.SPGW.OFCS = tb.OFCS
	if cfg.DurableLedger {
		syncEvery := cfg.LedgerSyncEvery
		if syncEvery <= 0 {
			syncEvery = 1 // every append durable: the full loss window recovers
		}
		led, err := ledger.Open(ledger.Options{
			Dir: "ofcs", FS: ledger.NewMemFS(), SyncEvery: syncEvery,
		}, nil)
		if err == nil {
			// The ledger draws no randomness and the OFCS is a
			// passive sink, so attaching it cannot perturb the
			// packet-level simulation.
			tb.OFCS.AttachLedger(led, 1)
		}
	}

	// Radio.
	if cfg.RSS.MeanGap > 0 && cfg.RSS.MeanOutage > 0 {
		tb.rssModel = ran.NewOutageRSS(cfg.RSS.Base, -125,
			cfg.RSS.MeanGap, cfg.RSS.MeanOutage, cfg.Duration+10*time.Second,
			tb.RNG.Fork("rss"))
	} else {
		tb.rssModel = ran.ConstantRSS(cfg.RSS.Base)
	}
	tb.Radio = ran.NewRadio(s, tb.rssModel)
	tb.Radio.OnDetach = func(sim.Time) { tb.MME.Detach(imsi) }
	tb.Radio.OnAttach = func(sim.Time) { tb.MME.Attach(imsi) }

	// Device.
	tb.Modem = &device.Modem{}
	tb.BS = ran.NewBaseStation(s, tb.Radio, tb.Modem)

	// Meters.
	tb.DevAppSent = netem.NewMeter("dev-app-sent", s, nil)
	tb.DevAppRecv = netem.NewMeter("dev-app-recv", s, nil)
	tb.SrvAppSent = netem.NewMeter("srv-app-sent", s, nil)
	tb.SrvAppRecv = netem.NewMeter("srv-app-recv", s, nil)
	tb.SrvIngress = netem.NewMeter("op-srv-ingress", s, nil)
	horizon := cfg.Duration + 2*time.Second
	for _, m := range []*netem.Meter{
		tb.DevAppSent, tb.DevAppRecv, tb.SrvAppSent, tb.SrvAppRecv, tb.SrvIngress,
	} {
		m.Reserve(horizon)
	}

	bsTap := func(next netem.Node) netem.Node {
		return netem.NodeFunc(func(p *netem.Packet) {
			if !p.Background {
				tb.BS.NotifyActivity(s.Now())
			}
			next.Recv(p)
		})
	}

	// ---- Uplink chain (device → server) ----
	// server app ingress (terminal).
	ulServer := netem.NodeFunc(func(p *netem.Packet) {
		if !p.Background && p.Dir == netem.Uplink {
			tb.SrvAppRecv.Recv(p)
		}
		tb.Pool.Put(p)
	})
	// Operator's server-port monitor in front of the app.
	ulOpMonitor := netem.NodeFunc(func(p *netem.Packet) {
		if !p.Background && p.Dir == netem.Uplink {
			tb.SrvIngress.Recv(p)
		}
		ulServer.Recv(p)
	})

	// ---- Downlink chain tail (air → device) ----
	dlDevice := netem.NodeFunc(func(p *netem.Packet) {
		if !p.Background && p.Dir == netem.Downlink {
			tb.DevAppRecv.Recv(p)
		}
		tb.Pool.Put(p)
	})
	modemDL := tb.Modem.DLNode(dlDevice)
	// Background DL traffic terminates at the cell without reaching
	// this device's modem (it belongs to the other phone).
	dlAirDst := netem.NodeFunc(func(p *netem.Packet) {
		if p.Background {
			tb.Pool.Put(p)
			return
		}
		modemDL.Recv(p)
	})
	airQueue := cfg.AirQueueBytes
	if airQueue <= 0 {
		airQueue = airQueueBytes
	}
	tb.DLAir = ran.NewAirLink(ran.AirLinkConfig{
		Name: "dl-air", RateBps: dlAirRateBps, Delay: 5 * time.Millisecond,
		QueueBytes: airQueue, ResidualLoss: dlAirResidualLoss,
	}, s, tb.Radio, bsTap(dlAirDst), tb.RNG.Fork("dl-air"))
	tb.DLAir.Pool = tb.Pool
	// bsTap skips background packets and dlAirDst only recycles them,
	// so the air link ends them at its transmitter instead of
	// scheduling a delivery nothing receives. The core bridge must not:
	// it hands them on to this link.
	tb.DLAir.BackgroundEnds = true

	// ---- Core bridge (shared, post-meter both directions) ----
	// GTP-U tunnels the SPGW↔eNodeB segment (S1-U): downlink packets
	// are encapsulated after metering and decapsulated at the base
	// station before the air interface.
	tb.Bearers = epc.NewBearerTable()
	dlDecap := &epc.GTPDecap{Bearers: tb.Bearers, Pool: tb.Pool}
	bridgeRouter := netem.NodeFunc(func(p *netem.Packet) {
		if p.Dir == netem.Downlink {
			dlDecap.Recv(p)
			return
		}
		ulOpMonitor.Recv(p)
	})
	tb.Bridge = netem.NewLink("core-bridge", s, bridgeRateBps, time.Millisecond,
		bridgeQueueBytes, bridgeRouter)
	tb.Bridge.Pool = tb.Pool
	bridgeRNG := tb.RNG.Fork("bridge")
	tb.Bridge.Loss = netem.LossFunc(func(p *netem.Packet, _ sim.Time) bool {
		if p.Background || p.Dir != netem.Uplink {
			return false
		}
		return bridgeRNG.Float64() < bridgeULResidualLoss
	})
	// The shared congestion point: all traffic (both directions and
	// the background stream) competes for the cell+core capacity.
	tb.Dropper = netem.NewLoadDropper(s, cellCapacityBps, tb.Bridge, tb.RNG.Fork("load"))
	tb.Dropper.Pool = tb.Pool
	dlDecap.Next = tb.DLAir

	// SPGW forwards into the congested core in both directions; the
	// downlink enters the S1-U tunnel after metering.
	dlEncap := &epc.GTPEncap{Bearers: tb.Bearers, Next: tb.Dropper}
	tb.SPGW.ULNext = tb.Dropper
	tb.SPGW.DLNext = dlEncap

	// ---- Uplink chain head (device → air → SPGW) ----
	// The uplink S1-U tunnel: the base station encapsulates into GTP
	// toward the gateway, which decapsulates before metering (CDRs
	// count subscriber bytes, not tunnel bytes).
	spgwUL := tb.SPGW.ULNode()
	ulDecap := &epc.GTPDecap{Bearers: tb.Bearers, Next: spgwUL, Pool: tb.Pool}
	ulEncap := &epc.GTPEncap{Bearers: tb.Bearers, Next: ulDecap}
	tb.ULAir = ran.NewAirLink(ran.AirLinkConfig{
		Name: "ul-air", RateBps: ulAirRateBps, Delay: 5 * time.Millisecond,
		QueueBytes: airQueue, ResidualLoss: ulAirResidualLoss,
	}, s, tb.Radio, bsTap(ulEncap), tb.RNG.Fork("ul-air"))
	tb.ULAir.Pool = tb.Pool
	modemUL := tb.Modem.ULNode(tb.ULAir)
	deviceULStack := netem.NodeFunc(func(p *netem.Packet) {
		tb.DevAppSent.Recv(p)
		modemUL.Recv(p)
	})

	// ---- Application streamer ----
	spgwDL := tb.SPGW.DLNode()
	inetRNG := tb.RNG.Fork("internet")
	serverDLStack := netem.NodeFunc(func(p *netem.Packet) {
		tb.SrvAppSent.Recv(p)
		if cfg.InternetLoss > 0 && inetRNG.Float64() < cfg.InternetLoss {
			tb.Pool.Put(p) // lost between the remote server and the core
			return
		}
		spgwDL.Recv(p)
	})
	var appDst netem.Node
	if cfg.App.Dir == netem.Uplink {
		appDst = deviceULStack
	} else {
		appDst = serverDLStack
	}
	if cfg.UseTraceReplay {
		tr := trace.Synthesize(cfg.App, cfg.App.Name, imsi, cfg.Duration+2*time.Second, cfg.Seed^0x5eed)
		tb.Replayer = &trace.Replayer{Trace: tr, Sched: s, IDs: tb.IDs, Dst: appDst, Pool: tb.Pool}
	} else {
		tb.Streamer = apps.NewStreamer(cfg.App, s, tb.IDs, appDst, cfg.App.Name, imsi, tb.RNG.Fork("app"))
		tb.Streamer.Pool = tb.Pool
	}

	// ---- Background traffic ----
	if cfg.BackgroundMbps > 0 {
		// Downlink iperf stream to a separate phone: crosses the
		// bridge, then the shared downlink air interface.
		src := &netem.TrafficSource{
			Sched: s, IDs: tb.IDs, Dst: tb.Dropper,
			Flow: "iperf-bg", IMSI: "other-phone", QCI: 9,
			Dir: netem.Downlink, RateBps: cfg.BackgroundMbps * 1e6,
			PacketSize: 7000, Background: true,
			Jitter: 0.2, RNG: tb.RNG.Fork("bg"),
			Pool: tb.Pool,
		}
		tb.bgSources = append(tb.bgSources, src)
	}

	// ---- Mobility ----
	if cfg.HandoverMeanInterval > 0 {
		tb.Handover = ran.NewHandoverModel(s, tb.RNG.Fork("handover"), cfg.HandoverMeanInterval)
		tb.Handover.Links = []*netem.Link{tb.DLAir, tb.ULAir}
		gate := func(now sim.Time) bool {
			return tb.Radio.Available(now) && !tb.Handover.Active(now)
		}
		tb.DLAir.Gate = gate
		tb.ULAir.Gate = gate
	}

	// ---- Fault injection ----
	// Strictly gated: RNG.Fork consumes the parent stream, so a
	// fault-free config must not touch tb.RNG here or every golden
	// output downstream would shift.
	if cfg.Faults != nil && !cfg.Faults.Zero() {
		tb.faultSpec = cfg.Faults.WithDefaults()
		tb.FaultTrace = &faults.Trace{}
		if tb.faultSpec.NetworkActive() {
			tb.NetFaultsDL = faults.NewNetFaults(tb.faultSpec,
				tb.RNG.Fork("faults-dl"), tb.FaultTrace, "dl-air")
			tb.DLAir.Inject = tb.NetFaultsDL
			tb.NetFaultsBridge = faults.NewNetFaults(tb.faultSpec,
				tb.RNG.Fork("faults-bridge"), tb.FaultTrace, "bridge")
			tb.Bridge.Inject = tb.NetFaultsBridge
		}
	}

	// ---- Clocks and monitors ----
	sync := simclock.NewSyncModel(cfg.NTPPrecision, tb.RNG.Fork("ntp"))
	tb.EdgeClock = simclock.New(sync.Residual(), tb.RNG.Fork("drift-e").Uniform(-5, 5))
	tb.OpClock = simclock.New(sync.Residual(), tb.RNG.Fork("drift-o").Uniform(-5, 5))

	tb.EdgeMon = &monitor.EdgeMonitor{
		Clock:      tb.EdgeClock,
		DeviceSent: tb.DevAppSent, DeviceReceived: tb.DevAppRecv,
		ServerSent: tb.SrvAppSent, ServerReceived: tb.SrvAppRecv,
		TamperFactor: cfg.EdgeTamper,
	}
	tb.OpMon = &monitor.OperatorMonitor{
		Clock: tb.OpClock, IMSI: imsi,
		Gateway:       tb.SPGW,
		ServerIngress: tb.SrvIngress,
	}
	tb.BS.OnCounterCheck = tb.OpMon.OnCounterCheck

	return tb
}

// Plan returns the cycle's data-plan window in true time.
func (tb *Testbed) Plan() simclock.Window {
	return simclock.Window{Start: 0, End: tb.Cfg.Duration}
}

// Run executes one full charging cycle and returns the measurements.
func (tb *Testbed) Run() *CycleResult {
	cfg := tb.Cfg
	s := tb.Sched

	tb.Radio.Start()
	tb.BS.Start()
	tb.SPGW.Start()
	tb.Dropper.Start()
	if tb.Handover != nil {
		tb.Handover.Start()
	}
	if tb.Replayer != nil {
		tb.Replayer.Start(0)
	} else {
		tb.Streamer.Start(0)
	}
	for _, bg := range tb.bgSources {
		bg.Start(0)
	}

	// The operator polls the modem with COUNTER CHECK at its view
	// of the cycle end (plus periodic keep-up polls every 10s so a
	// boundary outage degrades gracefully to a stale record).
	opWindow := tb.OpClock.ObservedWindow(tb.Plan())
	checkEvery := cfg.CounterCheckPeriod
	if checkEvery <= 0 {
		checkEvery = 10 * time.Second
	}
	for at := checkEvery; at < cfg.Duration; at += checkEvery {
		s.At(at, tb.BS.TriggerCounterCheck)
	}
	if opWindow.End > 0 {
		// Send the final check one air round-trip early so the
		// response snapshot lands at the boundary.
		end := opWindow.End - tb.BS.CheckRTT
		if end < s.Now() {
			end = s.Now()
		}
		s.At(end, tb.BS.TriggerCounterCheck)
	}

	// Component faults fire on the same simulated clock as everything
	// else, so they land identically at any sweep worker count.
	if tb.FaultTrace != nil {
		fs := tb.faultSpec
		if fs.OFCSCrashAt > 0 {
			s.At(fs.OFCSCrashAt, func() {
				lost := tb.OFCS.Crash(s.Now(), fs.CDRLossWindow)
				tb.FaultTrace.Addf(s.Now(), "ofcs crash lost=%d window=%s", lost, fs.CDRLossWindow)
			})
			s.At(fs.OFCSCrashAt+fs.OFCSDowntime, func() {
				recovered := tb.OFCS.Restart()
				if tb.OFCS.Ledger() != nil {
					tb.FaultTrace.Addf(s.Now(), "ofcs restart recovered=%d", recovered)
				} else {
					// Keep the ledger-less trace byte-identical to
					// the pre-ledger goldens.
					tb.FaultTrace.Addf(s.Now(), "ofcs restart")
				}
			})
		}
		if fs.SPGWRestartAt > 0 {
			s.At(fs.SPGWRestartAt, func() {
				lost := tb.SPGW.RestartMeters()
				tb.FaultTrace.Addf(s.Now(), "spgw meter restart lost=%d", lost)
			})
		}
	}

	horizon := cfg.Duration + 2*time.Second
	s.RunUntil(horizon)
	if tb.Streamer != nil {
		tb.Streamer.Stop()
	}
	for _, bg := range tb.bgSources {
		bg.Stop()
	}
	tb.SPGW.FlushCDRs(s.Now())
	tb.publishMetrics()

	return tb.collect()
}

// publishMetrics folds every substrate's plain run counters into the
// process-wide registry. It runs once, after the event loop stops, so
// instrumentation adds nothing to the hot path and cannot perturb
// event order or RNG draws; each component's PublishMetrics is
// once-guarded, so a second call is a no-op.
func (tb *Testbed) publishMetrics() {
	tb.Sched.PublishMetrics()
	tb.DLAir.PublishMetrics()
	tb.ULAir.PublishMetrics()
	tb.Bridge.PublishMetrics()
	tb.Dropper.PublishMetrics()
	tb.Pool.PublishMetrics()
	tb.OFCS.PublishMetrics()
	tb.SPGW.PublishMetrics()
	tb.NetFaultsDL.PublishMetrics()
	tb.NetFaultsBridge.PublishMetrics()
}

// CycleResult captures everything a charging scheme needs from one
// cycle, plus diagnostics.
type CycleResult struct {
	Cfg Config

	// Truth is the ground-truth (x̂e, x̂o) in the true cycle window.
	Truth struct {
		Sent     float64
		Received float64
	}
	// XHat is the plan-correct charging volume x̂.
	XHat float64

	// EdgeView and OpView are the parties' negotiation inputs.
	EdgeView struct{ Sent, Received float64 }
	OpView   struct{ Sent, Received float64 }

	// LegacyCharge is what legacy 4G/5G bills: the gateway-metered
	// volume in the direction under test.
	LegacyCharge float64

	// Eta is the intermittent disconnectivity ratio η.
	Eta float64
	// CDRCount is the number of gateway CDRs (Figure 11c).
	CDRCount int
	// DetachedDrops is the downlink volume discarded uncharged
	// while detached.
	DetachedDrops uint64
	// RRCReleases and CounterChecks count signalling events.
	RRCReleases   uint64
	CounterChecks uint64
	// Handovers and HandoverLostBytes record mobility effects.
	Handovers         uint64
	HandoverLostBytes uint64

	// Fault-injection outcomes; all zero when Cfg.Faults is nil.
	FaultDrops      uint64 // packets dropped by injected bursts
	FaultDups       uint64
	FaultDelays     uint64 // spikes + reorder holds
	LostCDRs        int    // records lost to OFCS crashes
	RecoveredCDRs   int    // loss-window records replayed from the ledger
	LostWindowCDRs  int    // loss-window records still missing (torn tail)
	OFCSCrashes     int
	GatewayRestarts int
	MeterLostBytes  uint64 // unflushed bytes lost to meter restarts
	FaultTraceLen   int
	FaultTraceHash  uint64
}

// collect computes the cycle's measurements.
func (tb *Testbed) collect() *CycleResult {
	cfg := tb.Cfg
	w := tb.Plan()
	r := &CycleResult{Cfg: cfg}

	var sentM, recvM *netem.Meter
	if cfg.App.Dir == netem.Uplink {
		sentM, recvM = tb.DevAppSent, tb.SrvAppRecv
	} else {
		sentM, recvM = tb.SrvAppSent, tb.DevAppRecv
	}
	truth := monitor.Truth(sentM, recvM, w)
	r.Truth.Sent, r.Truth.Received = truth.Sent, truth.Received
	r.XHat = truth.Received + cfg.C*(truth.Sent-truth.Received)

	ev := tb.EdgeMon.View(w, cfg.App.Dir)
	ov := tb.OpMon.View(w, cfg.App.Dir)
	r.EdgeView.Sent, r.EdgeView.Received = ev.Sent, ev.Received
	r.OpView.Sent, r.OpView.Received = ov.Sent, ov.Received

	opW := tb.OpClock.ObservedWindow(w)
	ul, dl := tb.SPGW.UsageInWindow(imsi, opW.Start, opW.End)
	if cfg.App.Dir == netem.Uplink {
		r.LegacyCharge = ul
	} else {
		r.LegacyCharge = dl
	}

	total := cfg.Duration
	if total > 0 {
		r.Eta = float64(tb.Radio.OutOfServiceTime()) / float64(total)
	}
	r.CDRCount = tb.OFCS.Records()
	_, r.DetachedDrops = tb.SPGW.DroppedDetached(imsi)
	r.RRCReleases = tb.BS.Releases()
	_, r.CounterChecks = tb.BS.CounterChecks()
	if tb.Handover != nil {
		r.Handovers = tb.Handover.Handovers()
		_, r.HandoverLostBytes = tb.Handover.Lost()
	}
	if tb.FaultTrace != nil {
		for _, l := range []*netem.Link{tb.DLAir, tb.Bridge} {
			r.FaultDrops += l.Stats.FaultDrops
			r.FaultDups += l.Stats.FaultDups
			r.FaultDelays += l.Stats.FaultDelays
		}
		r.LostCDRs = tb.OFCS.LostRecords()
		r.RecoveredCDRs = tb.OFCS.RecoveredRecords()
		r.LostWindowCDRs = tb.OFCS.LostWindowRecords()
		r.OFCSCrashes = tb.OFCS.Crashes()
		r.GatewayRestarts = tb.SPGW.Restarts()
		r.MeterLostBytes = tb.SPGW.RestartLostBytes()
		r.FaultTraceLen = tb.FaultTrace.Len()
		r.FaultTraceHash = tb.FaultTrace.Hash()
	}
	return r
}

// PerHour scales a per-cycle byte volume to MB/hr.
func (r *CycleResult) PerHour(bytes float64) float64 {
	secs := r.Cfg.Duration.Seconds()
	if secs == 0 {
		return 0
	}
	return bytes / 1e6 * 3600 / secs
}

// String summarises the cycle.
func (r *CycleResult) String() string {
	return fmt.Sprintf("%s: sent=%.0f recv=%.0f xhat=%.0f legacy=%.0f eta=%.3f cdrs=%d",
		r.Cfg.App.Name, r.Truth.Sent, r.Truth.Received, r.XHat, r.LegacyCharge, r.Eta, r.CDRCount)
}
