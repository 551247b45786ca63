// The city scenario: one simulated city of eNodeBs run as a single
// sharded simulation (sim.ShardGroup). Each eNodeB is its own
// partition — its own scheduler, RNG stream, packet pool and link
// chain — and UEs live at exactly one eNodeB at a time, generating
// diurnally-modulated downlink load from the internal/apps workload
// profiles. Mobility moves UEs between eNodeBs over X2 exchange
// lanes, and packets still in the source cell's pipeline after a
// handover are X2-forwarded to the target cell (or dropped once the
// forwarding window closes — the §3.1 mobility gap cause, now at
// city scale). Periodic handover storms push bursts of UEs between
// cells, stressing the cross-shard lanes.
//
// The whole city is charged at each cell's gateway meter before the
// backhaul, so congestion, residual air loss and expired forwards all
// land post-meter: the city-wide charging gap is the same quantity
// the paper's single-cell testbed measures, aggregated over every
// subscriber of every cell.
//
// Determinism: each cell's seed and each UE's seed are pure functions
// of (Seed, index); a UE's RNG travels with it across handovers; and
// all cross-cell traffic rides netem Lane/Inbox merges keyed by
// (at, lane, seq). Metrics are therefore byte-identical at any shard
// worker count, 0 (sequential golden path) included.
package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"tlc/internal/apps"
	"tlc/internal/netem"
	"tlc/internal/sim"
	"tlc/internal/stats"
)

// CityConfig parameterises one city-scale cycle.
type CityConfig struct {
	// ENodeBs is the number of cells; each is one shard partition.
	ENodeBs int
	// UEsPerENB is the number of subscribers initially homed at each
	// cell (they migrate freely afterwards).
	UEsPerENB int
	// Duration is the simulated cycle length.
	Duration time.Duration
	// Seed drives all randomness deterministically.
	Seed int64
	// Shards is the worker goroutine count: 0 runs the sequential
	// golden path, W >= 1 runs W shard workers. Requesting more
	// shards than eNodeBs is an error, never a silent clamp.
	Shards int

	// X2Delay is the cross-cell lane latency and the shard barrier
	// lookahead; default 20ms.
	X2Delay time.Duration
	// MoveCheckMean is the mean interval between a UE's mobility
	// decisions; default 5s.
	MoveCheckMean time.Duration
	// MoveProb is the per-check handover probability outside storms;
	// default 0.12.
	MoveProb float64
	// StormPeriod/StormLen schedule handover storms: the last
	// StormLen of every StormPeriod multiplies the mobility hazard by
	// cityStormFactor. Defaults: Duration/3, Duration/15.
	StormPeriod time.Duration
	StormLen    time.Duration
	// ForwardWindow is how long a source cell X2-forwards packets for
	// a departed UE before dropping them (charged but undelivered);
	// default 2s.
	ForwardWindow time.Duration

	// Stopwatch supplies the wall-clock probe for per-shard stall
	// accounting; nil disables stall measurement (stalls are
	// diagnostics and never feed the simulation).
	Stopwatch Stopwatch
	// TraceEvents records a per-cell FNV hash of the fired-event
	// (at, seq) stream for the shard-vs-sequential differential
	// tests. It costs one branch per event; leave it off outside
	// tests.
	TraceEvents bool
}

// City link parameters, one set per cell: the meter charges before
// the backhaul, so backhaul queueing, air loss/queueing and expired
// X2 forwards are all post-meter gap sources.
const (
	cityBackhaulRateBps    = 200e6
	cityBackhaulQueueBytes = 192 << 10
	cityBackhaulDelay      = 2 * time.Millisecond
	cityAirRateBps         = 170e6
	cityAirQueueBytes      = 256 << 10
	cityAirDelay           = 5 * time.Millisecond
	cityAirResidualLoss    = 0.075
	// cityStormFactor multiplies the mobility hazard inside a
	// handover storm.
	cityStormFactor = 8
)

func (c CityConfig) withDefaults() CityConfig {
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.ENodeBs <= 0 {
		c.ENodeBs = 12
	}
	if c.UEsPerENB <= 0 {
		c.UEsPerENB = 40
	}
	if c.X2Delay <= 0 {
		c.X2Delay = 20 * time.Millisecond
	}
	if c.MoveCheckMean <= 0 {
		c.MoveCheckMean = 5 * time.Second
	}
	if c.MoveProb <= 0 {
		c.MoveProb = 0.12
	}
	if c.StormPeriod <= 0 {
		c.StormPeriod = c.Duration / 3
	}
	if c.StormLen <= 0 {
		c.StormLen = c.Duration / 15
	}
	if c.ForwardWindow <= 0 {
		c.ForwardWindow = 2 * time.Second
	}
	return c
}

// CellStat is one cell's contribution to a city run. Everything here
// is deterministic at any shard count.
type CellStat struct {
	Cell           int
	EventsFired    uint64
	ChargedBytes   uint64
	DeliveredBytes uint64
	QueueDrops     uint64
	LossDrops      uint64
	Forwarded      uint64
	ForwardDrops   uint64
	HandoversOut   uint64
	HandoversIn    uint64
	LanePackets    uint64
	InboxArrivals  uint64
	FiredTraceHash uint64 // only with CityConfig.TraceEvents
}

// CityResult is one completed city cycle.
type CityResult struct {
	Cells []CellStat
	// Shards is the per-worker execution report (events fired, stall
	// at barriers). Unlike everything else here it depends on the
	// shard count and, for stalls, on the host — it never enters
	// Metrics or Text.
	Shards []ShardStat

	ChargedBytes   uint64
	DeliveredBytes uint64
	Handovers      uint64

	// GapSample holds the per-UE charging-gap ratios, merged from
	// per-cell contributions in cell order (stats.Merge), UE order
	// within a cell — never worker completion order.
	GapSample *stats.Sample

	Metrics map[string]float64
	Text    string
}

// cityUE is one subscriber. Exactly one cell owns it at any time;
// ownership transfers through the ueMover at a window barrier, which
// is what makes the unguarded fields safe.
type cityUE struct {
	id   uint32
	prof apps.Profile
	rng  *sim.RNG

	// res marks the current residency; depart flips res.gone so the
	// old cell's orphaned tick/move events fire as no-ops. The marker
	// — not the UE — is what stale closures read: it belongs to the
	// old cell's scheduler, so no cross-shard access ever happens.
	res *residency

	frames    uint64
	charged   uint64
	delivered uint64
}

type departure struct {
	at   sim.Time
	dest int
}

// residency gates one UE's tick/move event chains at one cell. It is
// created at attach, captured by that residency's closures, and
// flipped at depart — all on the owning cell's scheduler.
type residency struct {
	gone bool
}

// cityCell is one eNodeB partition.
type cityCell struct {
	id   int
	city *cityRun

	sched *sim.Scheduler
	rng   *sim.RNG
	pool  *netem.PacketPool
	ids   *netem.IDGen

	backhaul *netem.Link
	air      *netem.Link

	residents map[uint32]*cityUE
	departed  map[uint32]departure

	lanes []*netem.Lane // indexed by destination cell; nil at self
	inbox *netem.Inbox

	charged      uint64
	delivered    uint64
	forwarded    uint64
	forwardDrops uint64
	handoversOut uint64
	handoversIn  uint64
	traceHash    uint64
}

type cityRun struct {
	cfg   CityConfig
	group *sim.ShardGroup
	cells []*cityCell
	ues   []*cityUE
	mover *ueMover
}

// diurnal returns the load multiplier in [0.25, 1] at simulated time
// t: the cycle compresses one cosine day, troughs at its boundaries.
func (r *cityRun) diurnal(t sim.Time) float64 {
	day := r.cfg.Duration.Seconds()
	phase := math.Mod(t.Seconds(), day)
	return 0.25 + 0.375*(1-math.Cos(2*math.Pi*phase/day))
}

// inStorm reports whether t falls in a handover storm (the last
// StormLen of each StormPeriod).
func (r *cityRun) inStorm(t sim.Time) bool {
	phase := t % r.cfg.StormPeriod
	return phase >= r.cfg.StormPeriod-r.cfg.StormLen
}

// nextGap draws the next inter-frame (or inter-packet) gap for u from
// its own stream, scaled by the diurnal load at the cell's clock.
func (c *cityCell) nextGap(u *cityUE) time.Duration {
	rate := u.prof.FPS
	if u.prof.PacketMode {
		rate = u.prof.PacketRate
	}
	rate *= c.city.diurnal(c.sched.Now())
	mean := float64(time.Second) / rate
	return time.Duration(mean * (0.9 + 0.2*u.rng.Float64()))
}

// attach makes c the UE's owner: it joins the resident table and its
// traffic and mobility processes restart on c's scheduler. The
// closures capture a fresh residency marker instead of the UE, and
// depart flips it, so events left behind at the previous cell expire
// silently without ever touching the (now foreign-owned) UE — the
// marker lives and dies on one cell's scheduler.
func (c *cityCell) attach(u *cityUE) {
	res := &residency{}
	u.res = res
	c.residents[u.id] = u
	delete(c.departed, u.id)

	var tick func()
	tick = func() {
		if res.gone {
			return
		}
		c.emit(u)
		c.sched.AfterPooled(c.nextGap(u), tick)
	}
	c.sched.AfterPooled(c.nextGap(u), tick)

	var move func()
	move = func() {
		if res.gone {
			return
		}
		p := c.city.cfg.MoveProb
		if c.city.inStorm(c.sched.Now()) {
			p *= cityStormFactor
			if p > 0.9 {
				p = 0.9
			}
		}
		if len(c.city.cells) > 1 && u.rng.Bernoulli(p) {
			c.depart(u)
			return
		}
		c.sched.AfterPooled(u.rng.Exp(c.city.cfg.MoveCheckMean), move)
	}
	c.sched.AfterPooled(u.rng.Exp(c.city.cfg.MoveCheckMean), move)
}

// emit generates one application frame (or control packet) for u,
// charges it at the cell's gateway meter and hands it to the
// backhaul. Everything downstream of the charge is a potential gap
// source.
func (c *cityCell) emit(u *cityUE) {
	p := u.prof
	if p.PacketMode {
		c.sendPacket(u, p.PacketSize+p.HeaderBytes)
		return
	}
	u.frames++
	bytes := float64(p.MeanFrameBytes) * math.Exp(u.rng.Norm(0, p.FrameSigma))
	if p.KeyFrameInterval > 0 && u.frames%uint64(p.KeyFrameInterval) == 0 {
		bytes *= p.KeyFrameScale
	}
	rem := int(bytes)
	if rem < 1 {
		rem = 1
	}
	for rem > 0 {
		sz := p.MTU
		if rem < sz {
			sz = rem
		}
		rem -= sz
		c.sendPacket(u, sz+p.HeaderBytes)
	}
}

func (c *cityCell) sendPacket(u *cityUE, size int) {
	pk := c.pool.Get()
	pk.ID = c.ids.Next()
	pk.Flow = u.prof.Name
	pk.QCI = u.prof.QCI
	pk.Size = size
	pk.Dir = netem.Downlink
	pk.Sent = c.sched.Now()
	pk.TEID = u.id
	c.charged += uint64(size)
	u.charged += uint64(size)
	c.backhaul.Recv(pk)
}

// depart hands the UE off: it leaves the resident table, a departure
// record keeps X2 forwarding alive for the forward window, and the
// UE state crosses to the destination cell through the mover lane.
func (c *cityCell) depart(u *cityUE) {
	now := c.sched.Now()
	dest := u.rng.Intn(len(c.city.cells) - 1)
	if dest >= c.id {
		dest++
	}
	u.res.gone = true // expire this residency's tick/move events
	delete(c.residents, u.id)
	c.departed[u.id] = departure{at: now, dest: dest}
	c.handoversOut++
	c.city.mover.send(c.id, dest, u, now+sim.Time(c.city.cfg.X2Delay))
}

// airDeliver terminates the cell's downlink air chain: deliver to the
// resident UE, X2-forward to a recently departed UE's new cell, or
// drop once the forwarding window has closed (charged, never
// delivered — the mobility share of the city's charging gap).
func (c *cityCell) airDeliver(p *netem.Packet) {
	if u, ok := c.residents[p.TEID]; ok {
		u.delivered += uint64(p.Size)
		c.delivered += uint64(p.Size)
		c.pool.Put(p)
		return
	}
	if dep, ok := c.departed[p.TEID]; ok {
		if c.sched.Now()-dep.at <= sim.Time(c.city.cfg.ForwardWindow) {
			c.forwarded++
			c.lanes[dep.dest].Send(p)
			return
		}
	}
	c.forwardDrops++
	c.pool.Put(p)
}

// ueMove is one UE handoff in transit between cells.
type ueMove struct {
	at   sim.Time
	ue   *cityUE
	dest int
}

// ueMover is the control-plane exchanger: it carries UE ownership
// between cells. Moves from all source cells merge by (at, source
// cell, send order) — the same deterministic key shape as the packet
// lanes — and the mover is registered before the inboxes, so at equal
// times a UE attaches before its forwarded packets arrive.
type ueMover struct {
	cells []*cityCell
	delay time.Duration
	bufs  [][]ueMove
	heads []int
}

func newUEMover(cells []*cityCell, delay time.Duration) *ueMover {
	return &ueMover{
		cells: cells,
		delay: delay,
		bufs:  make([][]ueMove, len(cells)),
		heads: make([]int, len(cells)),
	}
}

func (m *ueMover) send(src, dest int, u *cityUE, at sim.Time) {
	m.bufs[src] = append(m.bufs[src], ueMove{at: at, ue: u, dest: dest})
}

// MinDelay implements sim.Exchanger.
func (m *ueMover) MinDelay() time.Duration { return m.delay }

// Flush implements sim.Exchanger.
func (m *ueMover) Flush(limit sim.Time) {
	for {
		best := -1
		var bestAt sim.Time
		for src := range m.bufs {
			h := m.heads[src]
			if h >= len(m.bufs[src]) {
				continue
			}
			if best < 0 || m.bufs[src][h].at < bestAt {
				best, bestAt = src, m.bufs[src][h].at
			}
		}
		if best < 0 {
			break
		}
		mv := m.bufs[best][m.heads[best]]
		m.heads[best]++
		if mv.at <= limit {
			panic(fmt.Sprintf("experiment: ue move at %v violates the window barrier at %v", mv.at, limit))
		}
		d := m.cells[mv.dest]
		u := mv.ue
		d.sched.At(mv.at, func() {
			d.handoversIn++
			d.attach(u)
		})
	}
	for src := range m.bufs {
		if m.heads[src] > 0 {
			m.bufs[src] = m.bufs[src][:0]
			m.heads[src] = 0
		}
	}
}

// buildCity wires the partitions, lanes and subscribers.
func buildCity(cfg CityConfig) *cityRun {
	r := &cityRun{cfg: cfg}
	r.group = sim.NewShardGroup(cfg.ENodeBs, cfg.X2Delay)
	if cfg.Stopwatch != nil {
		r.group.Stopwatch = cfg.Stopwatch
	}

	r.cells = make([]*cityCell, cfg.ENodeBs)
	for i := range r.cells {
		sh := r.group.Shard(i)
		c := &cityCell{
			id:        i,
			city:      r,
			sched:     sh.Sched,
			rng:       sim.NewRNG(sim.SeedForCell(cfg.Seed, 0, i)),
			pool:      &netem.PacketPool{},
			ids:       &netem.IDGen{},
			residents: make(map[uint32]*cityUE),
			departed:  make(map[uint32]departure),
			lanes:     make([]*netem.Lane, cfg.ENodeBs),
		}
		c.air = netem.NewLink(fmt.Sprintf("city-air-%d", i), c.sched,
			cityAirRateBps, cityAirDelay, cityAirQueueBytes, netem.NodeFunc(c.airDeliver))
		c.air.Pool = c.pool
		c.air.Loss = &netem.BernoulliLoss{P: cityAirResidualLoss, RNG: c.rng.Fork("air-loss")}
		c.backhaul = netem.NewLink(fmt.Sprintf("city-backhaul-%d", i), c.sched,
			cityBackhaulRateBps, cityBackhaulDelay, cityBackhaulQueueBytes, c.air)
		c.backhaul.Pool = c.pool
		if cfg.TraceEvents {
			c.traceHash = 14695981039346656037 // FNV-1a offset basis
			cell := c
			cell.sched.TraceHook = func(at sim.Time, seq uint64) {
				cell.traceHash = fnvMix(fnvMix(cell.traceHash, uint64(at)), seq)
			}
		}
		r.cells[i] = c
	}

	// Cross-cell wiring: the UE mover first (a UE attaches before its
	// forwarded packets land at an equal instant), then one inbox per
	// cell with its inbound lanes attached in source order.
	if cfg.ENodeBs > 1 {
		r.mover = newUEMover(r.cells, cfg.X2Delay)
		r.group.AddExchanger(r.mover)
		for _, dst := range r.cells {
			d := dst
			dst.inbox = netem.NewInbox(fmt.Sprintf("city-x2-in-%d", dst.id),
				dst.sched, dst.pool, netem.NodeFunc(func(p *netem.Packet) { d.air.Recv(p) }))
			for _, src := range r.cells {
				if src.id == dst.id {
					continue
				}
				lane := netem.NewLane(fmt.Sprintf("city-x2-%d-%d", src.id, dst.id),
					cfg.X2Delay, src.sched, src.pool)
				src.lanes[dst.id] = lane
				dst.inbox.Attach(lane)
			}
			r.group.AddExchanger(dst.inbox)
		}
	}

	// Subscribers: UE g starts at cell g/UEsPerENB with the workload
	// profile g%len(Workloads), downlink. Its RNG seed is a pure
	// function of (Seed, g) and travels with it across handovers.
	n := cfg.ENodeBs * cfg.UEsPerENB
	r.ues = make([]*cityUE, n)
	for g := 0; g < n; g++ {
		u := &cityUE{
			id:   uint32(g),
			prof: apps.Workloads[g%len(apps.Workloads)].WithDirection(netem.Downlink),
			rng:  sim.NewRNG(sim.SeedForCell(cfg.Seed, 1, g)),
		}
		r.ues[g] = u
		r.cells[g/cfg.UEsPerENB].attach(u)
	}
	return r
}

func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// RunCity executes one city cycle at cfg.Shards workers and collects
// the results. It refuses — rather than clamps — a shard count above
// the eNodeB count, and refuses negative counts.
func RunCity(cfg CityConfig) (*CityResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("city: negative shard count %d", cfg.Shards)
	}
	if cfg.Shards > cfg.ENodeBs {
		return nil, fmt.Errorf("city: %d shards exceed %d eNodeBs (refusing to clamp)", cfg.Shards, cfg.ENodeBs)
	}
	r := buildCity(cfg)
	workers, err := r.group.RunUntil(cfg.Duration, cfg.Shards)
	if err != nil {
		return nil, err
	}
	res := r.collect()
	res.Shards = make([]ShardStat, len(workers))
	for i, w := range workers {
		res.Shards[i] = ShardStat{
			Shard:       w.Worker,
			Partitions:  w.Partitions,
			EventsFired: w.EventsFired,
			StallMS:     float64(w.Stall.Microseconds()) / 1e3,
		}
	}
	r.publishMetrics()
	return res, nil
}

// publishMetrics folds every partition's run counters into the
// process-wide registry at the run boundary (the PR 5 two-tier rule:
// nothing observes inline, so event order and RNG draws are
// untouched), cell by cell in index order.
func (r *cityRun) publishMetrics() {
	for _, c := range r.cells {
		c.sched.PublishMetrics()
		c.backhaul.PublishMetrics()
		c.air.PublishMetrics()
		c.pool.PublishMetrics()
		for _, l := range c.lanes {
			l.PublishMetrics()
		}
		c.inbox.PublishMetrics()
	}
}

// collect aggregates the run into a CityResult. Every loop is in
// cell or UE index order; nothing depends on worker completion order.
func (r *cityRun) collect() *CityResult {
	cfg := r.cfg
	res := &CityResult{}
	res.Cells = make([]CellStat, len(r.cells))
	var queueDrops, lossDrops, forwarded, forwardDrops, lanePkts, inboxPkts uint64
	for i, c := range r.cells {
		c.backhaul.Settle()
		c.air.Settle()
		st := CellStat{
			Cell:           i,
			EventsFired:    c.sched.Fired(),
			ChargedBytes:   c.charged,
			DeliveredBytes: c.delivered,
			QueueDrops:     c.backhaul.Stats.QueueDrops + c.air.Stats.QueueDrops,
			LossDrops:      c.air.Stats.LossDrops,
			Forwarded:      c.forwarded,
			ForwardDrops:   c.forwardDrops,
			HandoversOut:   c.handoversOut,
			HandoversIn:    c.handoversIn,
			FiredTraceHash: c.traceHash,
		}
		for _, l := range c.lanes {
			if l != nil {
				st.LanePackets += l.Stats.Packets
			}
		}
		if c.inbox != nil {
			st.InboxArrivals = c.inbox.Arrived()
		}
		res.Cells[i] = st
		res.ChargedBytes += st.ChargedBytes
		res.DeliveredBytes += st.DeliveredBytes
		res.Handovers += st.HandoversOut
		queueDrops += st.QueueDrops
		lossDrops += st.LossDrops
		forwarded += st.Forwarded
		forwardDrops += st.ForwardDrops
		lanePkts += st.LanePackets
		inboxPkts += st.InboxArrivals
	}

	// Per-UE gap ratios: one Sample contribution per cell (the UEs
	// initially homed there, in UE order), merged in cell order. The
	// merge must never reorder contributions — see stats.Merge and
	// the shard-parity regression tests.
	parts := make([]*stats.Sample, cfg.ENodeBs)
	for i := range parts {
		part := stats.NewSample()
		for g := i * cfg.UEsPerENB; g < (i+1)*cfg.UEsPerENB; g++ {
			u := r.ues[g]
			gap := 0.0
			if u.charged > 0 {
				gap = float64(u.charged-u.delivered) / float64(u.charged)
			}
			part.Add(gap)
		}
		parts[i] = part
	}
	res.GapSample = stats.Merge(parts...)

	events := uint64(0)
	for _, st := range res.Cells {
		events += st.EventsFired
	}
	gapMB := float64(res.ChargedBytes-res.DeliveredBytes) / 1e6
	gapRatio := 0.0
	if res.ChargedBytes > 0 {
		gapRatio = float64(res.ChargedBytes-res.DeliveredBytes) / float64(res.ChargedBytes)
	}
	res.Metrics = map[string]float64{
		"charged_mb":        float64(res.ChargedBytes) / 1e6,
		"delivered_mb":      float64(res.DeliveredBytes) / 1e6,
		"gap_mb":            gapMB,
		"gap_ratio":         gapRatio,
		"handovers":         float64(res.Handovers),
		"queue_drop_pkts":   float64(queueDrops),
		"loss_drop_pkts":    float64(lossDrops),
		"x2_forwarded_pkts": float64(forwarded),
		"forward_drop_pkts": float64(forwardDrops),
		"x2_lane_pkts":      float64(lanePkts),
		"ue_gap_p50":        res.GapSample.Percentile(50),
		"ue_gap_p95":        res.GapSample.Percentile(95),
		"events_fired":      float64(events),
	}

	var b strings.Builder
	fmt.Fprintf(&b, "city: %d eNodeBs x %d UEs, %v cycle, lookahead %v\n",
		cfg.ENodeBs, cfg.UEsPerENB, cfg.Duration, cfg.X2Delay)
	fmt.Fprintf(&b, "%-5s %10s %12s %12s %8s %8s %9s %9s\n",
		"cell", "events", "charged MB", "delivered MB", "ho-out", "ho-in", "x2-fwd", "fwd-drop")
	for _, st := range res.Cells {
		fmt.Fprintf(&b, "%-5d %10d %12.2f %12.2f %8d %8d %9d %9d\n",
			st.Cell, st.EventsFired,
			float64(st.ChargedBytes)/1e6, float64(st.DeliveredBytes)/1e6,
			st.HandoversOut, st.HandoversIn, st.Forwarded, st.ForwardDrops)
	}
	fmt.Fprintf(&b, "total: charged %.2f MB, delivered %.2f MB, gap %.2f MB (%.2f%%), %d handovers, %d x2 packets\n",
		float64(res.ChargedBytes)/1e6, float64(res.DeliveredBytes)/1e6,
		gapMB, gapRatio*100, res.Handovers, lanePkts)
	b.WriteString(stats.RenderCDF("per-UE charging-gap ratio", res.GapSample, 10))
	res.Text = b.String()
	return res
}

// CityScale returns the city sizing tlcbench and the City runner use
// for the given options: the full 12x40 city for full-length cycles,
// a 4x8 city for quick/smoke runs. tlcbench validates -shards against
// the eNodeB count this returns.
func CityScale(opt Options) (enodebs, uesPerENB int) {
	if opt.Duration > 0 && opt.Duration < 30*time.Second {
		return 4, 8
	}
	return 12, 40
}

// City is the experiment runner: one city-scale sharded cycle at
// opt.Shards workers. Its Metrics and Text are byte-identical at any
// shard count; only Result.Shards (events per worker, barrier stalls)
// reflects the execution layout.
func City(opt Options) Result {
	opt = opt.withDefaults()
	enbs, ues := CityScale(opt)
	res, err := RunCity(CityConfig{
		ENodeBs:   enbs,
		UEsPerENB: ues,
		Duration:  opt.Duration,
		Seed:      4242,
		Shards:    opt.Shards,
		Stopwatch: opt.Stopwatch,
	})
	if err != nil {
		// tlcbench validates -shards before running; reaching this
		// means a programming error, not user input.
		panic("experiment: " + err.Error())
	}
	return Result{
		ID:      "city",
		Title:   "Extension: city-scale sharded simulation (diurnal load, mobility, handover storms)",
		Text:    res.Text,
		Metrics: res.Metrics,
		Shards:  res.Shards,
	}
}
