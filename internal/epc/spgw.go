package epc

import (
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// gwSession is the SPGW's per-subscriber forwarding and metering
// state.
type gwSession struct {
	imsi       string
	chargingID uint32
	seq        uint32

	ulMeter *netem.Meter
	dlMeter *netem.Meter

	firstUsage sim.Time
	lastUsage  sim.Time
	sawUsage   bool
	lastCDRUL  uint64
	lastCDRDL  uint64

	// droppedDetached counts downlink bytes discarded (uncharged)
	// while the device was detached — the core "prevents larger
	// gap" this way (§3.2).
	droppedDetachedBytes uint64
	droppedDetachedPkts  uint64
}

// SPGW is the serving/packet gateway: it forwards edge traffic,
// stamps QoS classes from the PCRF, meters usage per subscriber, and
// periodically emits CDRs to the OFCS.
type SPGW struct {
	Sched   *sim.Scheduler
	Address string
	MME     *MME
	PCRF    *PCRF

	// ULNext receives metered uplink packets (toward the edge
	// server through the core network).
	ULNext netem.Node
	// DLNext receives metered downlink packets (toward the base
	// station).
	DLNext netem.Node

	// CDRInterval is the record emission period; the paper's
	// testbed records usage every 1s (§3.2).
	CDRInterval time.Duration
	// OFCS receives emitted CDRs.
	OFCS *OFCS

	// Pool optionally recycles downlink packets discarded while the
	// subscriber is detached (the one drop site inside the gateway).
	Pool *netem.PacketPool

	// MeterHorizon, when positive, pre-sizes each session meter's
	// bin series for a cycle of that length so steady-state metering
	// does not grow slices; the testbed sets it to the cycle length.
	MeterHorizon time.Duration

	sessions map[string]*gwSession
	nextID   uint32
	started  bool

	// Meter-restart fault state: how many times RestartMeters ran and
	// how many metered-but-unflushed bytes each restart discarded.
	restarts      int
	restartLostBy uint64

	published bool

	// cdrArena allocates CDRs in fixed-capacity blocks. Emitting one
	// record per second per session makes *CDR the gateway's hottest
	// allocation; blocks amortise it ~64× while keeping the pointers
	// the OFCS retains stable (a full block is never reallocated,
	// a fresh one is started instead).
	cdrArena []CDR
}

// cdrArenaBlock is the arena block capacity.
const cdrArenaBlock = 64

// newCDR returns a pointer into the arena, valid for the lifetime of
// the gateway.
func (g *SPGW) newCDR(c CDR) *CDR {
	if len(g.cdrArena) == cap(g.cdrArena) {
		g.cdrArena = make([]CDR, 0, cdrArenaBlock)
	}
	g.cdrArena = append(g.cdrArena, c)
	return &g.cdrArena[len(g.cdrArena)-1]
}

// NewSPGW returns a gateway wired to the given control-plane
// functions.
func NewSPGW(sched *sim.Scheduler, addr string, mme *MME, pcrf *PCRF) *SPGW {
	return &SPGW{
		Sched:       sched,
		Address:     addr,
		MME:         mme,
		PCRF:        pcrf,
		CDRInterval: time.Second,
		sessions:    make(map[string]*gwSession),
	}
}

func (g *SPGW) session(imsi string) *gwSession {
	s, ok := g.sessions[imsi]
	if !ok {
		g.nextID++
		s = &gwSession{
			imsi:       imsi,
			chargingID: g.nextID - 1,
			ulMeter:    netem.NewMeter("spgw-ul-"+imsi, g.Sched, nil),
			dlMeter:    netem.NewMeter("spgw-dl-"+imsi, g.Sched, nil),
		}
		if g.MeterHorizon > 0 {
			s.ulMeter.Reserve(g.MeterHorizon)
			s.dlMeter.Reserve(g.MeterHorizon)
		}
		g.sessions[imsi] = s
	}
	return s
}

// Start begins periodic CDR emission. Optional: without it the
// gateway still meters, and FlushCDRs can be called at cycle end.
func (g *SPGW) Start() {
	if g.started || g.OFCS == nil {
		return
	}
	g.started = true
	g.Sched.Ticker(g.CDRInterval, g.CDRInterval, func(now sim.Time) { g.FlushCDRs(now) })
}

// FlushCDRs emits a CDR for every session with usage since the last
// record.
func (g *SPGW) FlushCDRs(now sim.Time) {
	if g.OFCS == nil {
		return
	}
	for _, s := range g.sessions {
		ul, dl := s.ulMeter.TotalBytes(), s.dlMeter.TotalBytes()
		// Defensive clamp: a meter that restarted below the last CDR
		// baseline must not underflow the uint64 delta. RestartMeters
		// already resets the baselines, so this only fires if a meter
		// is swapped out behind the gateway's back.
		if ul < s.lastCDRUL {
			s.lastCDRUL = ul
		}
		if dl < s.lastCDRDL {
			s.lastCDRDL = dl
		}
		if ul == s.lastCDRUL && dl == s.lastCDRDL {
			continue
		}
		cdr := g.newCDR(CDR{
			ServedIMSI:         FormatIMSITrace(s.imsi),
			GatewayAddress:     g.Address,
			ChargingID:         s.chargingID,
			SequenceNumber:     s.seq,
			TimeOfFirstUsage:   FormatCDRTime(s.firstUsage),
			TimeOfLastUsage:    FormatCDRTime(s.lastUsage),
			TimeUsage:          int64((s.lastUsage - s.firstUsage) / time.Second),
			DataVolumeUplink:   ul - s.lastCDRUL,
			DataVolumeDownlink: dl - s.lastCDRDL,
		})
		s.seq++
		s.lastCDRUL, s.lastCDRDL = ul, dl
		g.OFCS.CollectAt(cdr, now)
	}
}

// RestartMeters simulates the gateway's metering process restarting
// mid-cycle: every session gets fresh meters, and usage metered since
// the last CDR flush is lost (the OFCS's flushed records remain the
// durable copy — exactly the degradation the paper's charging
// architecture implies). Returns the unflushed bytes discarded.
func (g *SPGW) RestartMeters() (lostBytes uint64) {
	for _, s := range g.sessions {
		ul, dl := s.ulMeter.TotalBytes(), s.dlMeter.TotalBytes()
		if ul > s.lastCDRUL {
			lostBytes += ul - s.lastCDRUL
		}
		if dl > s.lastCDRDL {
			lostBytes += dl - s.lastCDRDL
		}
		s.ulMeter = netem.NewMeter("spgw-ul-"+s.imsi, g.Sched, nil)
		s.dlMeter = netem.NewMeter("spgw-dl-"+s.imsi, g.Sched, nil)
		if g.MeterHorizon > 0 {
			s.ulMeter.Reserve(g.MeterHorizon)
			s.dlMeter.Reserve(g.MeterHorizon)
		}
		// Fresh meters count from zero; reset the CDR baselines so the
		// next flush charges only post-restart usage.
		s.lastCDRUL, s.lastCDRDL = 0, 0
	}
	g.restarts++
	g.restartLostBy += lostBytes
	return lostBytes
}

// Restarts returns how many times the gateway's meters restarted.
func (g *SPGW) Restarts() int { return g.restarts }

// RestartLostBytes returns metered-but-unflushed bytes discarded by
// meter restarts.
func (g *SPGW) RestartLostBytes() uint64 { return g.restartLostBy }

func (g *SPGW) noteUsage(s *gwSession, now sim.Time) {
	if !s.sawUsage {
		s.firstUsage = now
		s.sawUsage = true
	}
	s.lastUsage = now
}

// ULNode returns the uplink ingress: packets arriving from the RAN
// are metered and forwarded into the core toward the edge server.
func (g *SPGW) ULNode() netem.Node {
	return netem.NodeFunc(func(p *netem.Packet) {
		if p.IMSI != "" && !p.Background {
			s := g.session(p.IMSI)
			s.ulMeter.Recv(p)
			g.noteUsage(s, g.Sched.Now())
		}
		if g.ULNext != nil {
			g.ULNext.Recv(p)
		}
	})
}

// DLNode returns the downlink ingress: packets arriving from the edge
// server get their QoS class stamped, are dropped uncharged if the
// device is detached, and otherwise are metered and forwarded toward
// the base station. Metering-before-the-air-interface is precisely
// what lets downlink loss create a charging gap.
func (g *SPGW) DLNode() netem.Node {
	return netem.NodeFunc(func(p *netem.Packet) {
		if g.PCRF != nil && !p.Background {
			p.QCI = g.PCRF.QCIFor(p.Flow)
		}
		if p.IMSI != "" && !p.Background {
			s := g.session(p.IMSI)
			if g.MME != nil && !g.MME.Attached(p.IMSI) {
				s.droppedDetachedPkts++
				s.droppedDetachedBytes += uint64(p.Size)
				g.Pool.Put(p)
				return
			}
			s.dlMeter.Recv(p)
			g.noteUsage(s, g.Sched.Now())
		}
		if g.DLNext != nil {
			g.DLNext.Recv(p)
		}
	})
}

// UsageInWindow returns the metered bytes for a subscriber inside an
// arbitrary window of true time. The operator's charging function
// queries this with its (possibly clock-skewed) view of the cycle.
func (g *SPGW) UsageInWindow(imsi string, start, end sim.Time) (ul, dl float64) {
	s := g.session(imsi)
	return s.ulMeter.BytesInWindow(start, end), s.dlMeter.BytesInWindow(start, end)
}

// DroppedDetached returns the downlink traffic discarded uncharged
// while the subscriber was detached.
func (g *SPGW) DroppedDetached(imsi string) (packets, bytes uint64) {
	s := g.session(imsi)
	return s.droppedDetachedPkts, s.droppedDetachedBytes
}
