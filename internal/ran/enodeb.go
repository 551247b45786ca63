package ran

import (
	"time"

	"tlc/internal/netem"
	"tlc/internal/sim"
)

// ModemCounters is the view the base station has of the device's
// hardware modem traffic statistics. The RRC COUNTER CHECK procedure
// reads these counters; because they live in the modem hardware, a
// selfish edge OS cannot manipulate them (§5.4).
type ModemCounters interface {
	// CounterSnapshot returns the cumulative uplink and downlink
	// bytes the modem has transferred.
	CounterSnapshot() (ulBytes, dlBytes uint64)
}

// CounterCheckRecord is one completed RRC COUNTER CHECK exchange.
type CounterCheckRecord struct {
	At sim.Time
	UL uint64
	DL uint64
}

// BaseStation models the eNodeB/gNB: RRC connection management with
// an inactivity release timer, and the COUNTER CHECK procedure that
// TLC activates so the operator obtains a tamper-resilient downlink
// record. Per §5.4, a COUNTER CHECK is issued before every RRC
// CONNECTION RELEASE, bounding the added signalling by the number of
// releases.
type BaseStation struct {
	Sched *sim.Scheduler
	Radio *Radio
	Modem ModemCounters

	// InactivityRelease is how long the connection stays up without
	// traffic before the base station releases it.
	InactivityRelease time.Duration
	// CheckRTT is the COUNTER CHECK request/response air round trip.
	CheckRTT time.Duration

	// OnCounterCheck receives every completed exchange; the
	// operator's monitor subscribes here.
	OnCounterCheck func(rec CounterCheckRecord)

	rrcConnected  bool
	lastActivity  sim.Time
	releases      uint64
	checksSent    uint64
	checksAnswerd uint64
	nextTxn       uint8

	started bool
}

// NewBaseStation returns a base station with default timers.
func NewBaseStation(sched *sim.Scheduler, radio *Radio, modem ModemCounters) *BaseStation {
	return &BaseStation{
		Sched:             sched,
		Radio:             radio,
		Modem:             modem,
		InactivityRelease: 10 * time.Second,
		CheckRTT:          30 * time.Millisecond,
	}
}

// Start begins the inactivity monitor.
func (b *BaseStation) Start() {
	if b.started {
		return
	}
	b.started = true
	b.Sched.Ticker(time.Second, time.Second, func(now sim.Time) {
		if b.rrcConnected && now-b.lastActivity >= b.InactivityRelease {
			b.release(now)
		}
	})
}

// NotifyActivity records data activity on the bearer; any packet
// crossing the air interface calls it. It implicitly performs RRC
// connection setup if the connection was idle.
func (b *BaseStation) NotifyActivity(now sim.Time) {
	b.rrcConnected = true
	b.lastActivity = now
}

// release performs COUNTER CHECK then RRC CONNECTION RELEASE.
func (b *BaseStation) release(now sim.Time) {
	b.TriggerCounterCheck()
	b.rrcConnected = false
	b.releases++
}

// TriggerCounterCheck initiates an RRC COUNTER CHECK toward the
// device. The request and response travel as encoded RRC messages;
// the response arrives after CheckRTT if the radio is available and
// is silently lost otherwise (the device is unreachable). The count
// snapshot is taken at response time on the modem.
func (b *BaseStation) TriggerCounterCheck() {
	if !b.Radio.Available(b.Sched.Now()) {
		return
	}
	b.nextTxn++
	req := CounterCheckMsg{TransactionID: b.nextTxn}
	wire := req.Marshal()
	b.checksSent++
	b.Sched.After(b.CheckRTT, func() {
		if !b.Radio.Available(b.Sched.Now()) {
			return // response lost in an outage
		}
		// The modem answers with its PDCP counts; decode the request
		// and encode the response exactly as the air interface would.
		decoded, err := ParseRRC(wire)
		if err != nil {
			return
		}
		q := decoded.(CounterCheckMsg)
		ul, dl := b.Modem.CounterSnapshot()
		respWire := CounterCheckResponseMsg{TransactionID: q.TransactionID, ULBytes: ul, DLBytes: dl}.Marshal()
		parsed, err := ParseRRC(respWire)
		if err != nil {
			return
		}
		resp := parsed.(CounterCheckResponseMsg)
		if resp.TransactionID != q.TransactionID {
			return // stale response
		}
		b.checksAnswerd++
		if b.OnCounterCheck != nil {
			b.OnCounterCheck(CounterCheckRecord{At: b.Sched.Now(), UL: resp.ULBytes, DL: resp.DLBytes})
		}
	})
}

// Releases returns how many RRC CONNECTION RELEASEs occurred.
func (b *BaseStation) Releases() uint64 { return b.releases }

// CounterChecks returns (sent, answered) COUNTER CHECK exchanges.
func (b *BaseStation) CounterChecks() (sent, answered uint64) {
	return b.checksSent, b.checksAnswerd
}

// AirLinkConfig parameterises one direction of the air interface.
type AirLinkConfig struct {
	Name         string
	RateBps      float64
	Delay        time.Duration
	QueueBytes   int
	ResidualLoss float64 // loss probability floor in good radio
}

// NewAirLink builds an air-interface link gated on radio
// availability, with residual (post-HARQ) Bernoulli loss and
// MCS-adaptive rate: weak signal lowers the serving rate, so a stream
// exceeding the degraded rate overflows the eNodeB buffer instead of
// being "lost on the wire". While the radio is unavailable the link
// buffers (base-station buffering partially tolerates short outages,
// Figure 4); buffered packets beyond the queue limit drop.
func NewAirLink(cfg AirLinkConfig, sched *sim.Scheduler, radio *Radio, dst netem.Node, rng *sim.RNG) *netem.Link {
	l := netem.NewLink(cfg.Name, sched, cfg.RateBps, cfg.Delay, cfg.QueueBytes, dst)
	l.Gate = radio.Available
	l.RateScale = func(now sim.Time) float64 {
		return MCSFactor(radio.Model.RSS(now))
	}
	l.Loss = netem.LossFunc(func(pkt *netem.Packet, now sim.Time) bool {
		p := LossProb(radio.Model.RSS(now), cfg.ResidualLoss)
		if p <= 0 {
			return false
		}
		if p >= 1 {
			return true
		}
		return rng.Float64() < p
	})
	return l
}
