// Package epc emulates the LTE evolved packet core used by the
// paper's testbed (OpenEPC): the home subscriber server (HSS), the
// policy and charging rules function (PCRF), the mobility management
// entity (MME), the serving/packet gateway (SPGW) that forwards and
// meters traffic, and the offline charging system (OFCS) that turns
// charging data records (CDRs) into bills.
//
// Charging-wise the important property is the metering point: the
// SPGW counts a packet when it forwards it, so any loss downstream of
// the gateway (the air interface on the downlink, the congested
// virtualised core on the uplink) is charged-but-not-delivered. That
// is the loss-induced charging gap of §3.
package epc

import "fmt"

// Subscriber is an HSS entry for one edge device.
type Subscriber struct {
	IMSI string
	// DefaultQCI applies to flows without a dedicated bearer.
	DefaultQCI uint8
}

// HSS is the home subscriber server.
type HSS struct {
	subs map[string]*Subscriber
}

// NewHSS returns an empty subscriber database.
func NewHSS() *HSS { return &HSS{subs: make(map[string]*Subscriber)} }

// Register adds or replaces a subscriber record.
func (h *HSS) Register(s *Subscriber) {
	h.subs[s.IMSI] = s
}

// PolicyRule maps an application flow to a QoS class. The gaming
// acceleration use case (§2.2) installs QCI=7 for its control flow
// while background traffic stays at QCI=9.
type PolicyRule struct {
	Flow string
	QCI  uint8
}

// PCRF is the policy and charging rules function.
type PCRF struct {
	// DefaultQCI is used when no rule matches; LTE's best-effort
	// default bearer is QCI 9.
	DefaultQCI uint8
	rules      []PolicyRule
}

// NewPCRF returns a PCRF with the LTE default bearer class.
func NewPCRF() *PCRF { return &PCRF{DefaultQCI: 9} }

// Install adds a dedicated-bearer rule.
func (p *PCRF) Install(rule PolicyRule) { p.rules = append(p.rules, rule) }

// QCIFor returns the QoS class for a flow.
func (p *PCRF) QCIFor(flow string) uint8 {
	for _, r := range p.rules {
		if r.Flow == flow {
			return r.QCI
		}
	}
	return p.DefaultQCI
}

// SessionState is the MME's view of a device session.
type SessionState int

const (
	// SessionAttached: traffic flows and is metered.
	SessionAttached SessionState = iota
	// SessionDetached: the MME released the session after a radio
	// link failure; the SPGW drops (and does not charge) traffic.
	SessionDetached
)

// Session is the per-device mobility/session record.
type Session struct {
	State    SessionState
	Attaches int
	Detaches int
}

// MME is the mobility management entity. The RAN's radio-link-failure
// detection calls Detach/Attach; the SPGW consults the MME before
// forwarding.
type MME struct {
	sessions map[string]*Session
}

// NewMME returns an MME with no sessions.
func NewMME() *MME {
	return &MME{sessions: make(map[string]*Session)}
}

// Attach creates or re-activates a session.
func (m *MME) Attach(imsi string) *Session {
	s, ok := m.sessions[imsi]
	if !ok {
		s = &Session{}
		m.sessions[imsi] = s
	}
	if !ok || s.State == SessionDetached {
		s.State = SessionAttached
		s.Attaches++
	}
	return s
}

// Detach releases the session after a radio link failure.
func (m *MME) Detach(imsi string) {
	s, ok := m.sessions[imsi]
	if !ok || s.State == SessionDetached {
		return
	}
	s.State = SessionDetached
	s.Detaches++
}

// Attached reports whether the device currently has a session.
func (m *MME) Attached(imsi string) bool {
	s, ok := m.sessions[imsi]
	return ok && s.State == SessionAttached
}

// FormatIMSITrace renders an IMSI in the nibble-swapped hex form seen
// in the paper's Trace 1 ("00 01 11 32 54 76 48 F5"), as a real
// gateway's records carry it.
func FormatIMSITrace(imsi string) string {
	// Pad to an even number of digits with a trailing filler 'F',
	// then swap nibbles per byte, per TBCD encoding.
	digits := imsi
	if len(digits)%2 == 1 {
		digits += "F"
	}
	out := ""
	for i := 0; i+1 < len(digits); i += 2 {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%c%c", digits[i+1], digits[i])
	}
	return out
}
