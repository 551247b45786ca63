package epc

import (
	"tlc/internal/netem"
)

// GTP-U (GPRS tunnelling protocol, user plane) carries subscriber IP
// packets between the base station and the gateway over the S1-U
// interface. The emulation encapsulates packets crossing the
// SPGW↔eNodeB segment so that (a) per-bearer tunnel endpoint IDs
// (TEIDs) demultiplex subscribers exactly as in a real core, and (b)
// the gateway's metering-point byte counts include the same tunnel
// overhead question real charging systems face (§2.1's CDRs count
// subscriber bytes, not tunnel bytes).

// GTPHeaderSize is the fixed GTPv1-U header length used here (no
// optional fields): version/flags, message type, length, TEID.
const GTPHeaderSize = 8

// BearerTable allocates and resolves tunnel endpoint IDs per
// (IMSI, QCI) bearer, as the control plane would during session
// establishment.
type BearerTable struct {
	next   uint32
	byKey  map[bearerKey]uint32
	byTEID map[uint32]BearerInfo
}

// bearerKey identifies a bearer in the table. It is a comparable
// struct, not a formatted string, so the per-packet Establish lookup
// in GTPEncap allocates nothing.
type bearerKey struct {
	imsi string
	qci  uint8
}

// BearerInfo identifies the subscriber bearer behind a TEID.
type BearerInfo struct {
	IMSI string
	QCI  uint8
}

// NewBearerTable returns an empty table. TEID 0 is reserved.
func NewBearerTable() *BearerTable {
	return &BearerTable{next: 1, byKey: map[bearerKey]uint32{}, byTEID: map[uint32]BearerInfo{}}
}

// Establish returns the TEID for a bearer, allocating on first use.
func (t *BearerTable) Establish(imsi string, qci uint8) uint32 {
	k := bearerKey{imsi, qci}
	if teid, ok := t.byKey[k]; ok {
		return teid
	}
	teid := t.next
	t.next++
	t.byKey[k] = teid
	t.byTEID[teid] = BearerInfo{IMSI: imsi, QCI: qci}
	return teid
}

// Resolve maps a TEID back to its bearer.
func (t *BearerTable) Resolve(teid uint32) (BearerInfo, bool) {
	info, ok := t.byTEID[teid]
	return info, ok
}

// Len returns the number of established bearers.
func (t *BearerTable) Len() int { return len(t.byKey) }

// GTPEncap encapsulates packets into the tunnel toward Next: it adds
// the GTP header bytes to the wire size and stamps the bearer's TEID
// into the packet's tunnel field. The simulator does not carry
// payload bytes, so encapsulation manifests as size overhead plus the
// TEID bookkeeping — exactly the parts that matter for charging.
type GTPEncap struct {
	Bearers *BearerTable
	Next    netem.Node

	Encapsulated uint64
}

// Recv implements netem.Node.
//
//tlcvet:hotpath every tunnelled packet is encapsulated here
func (g *GTPEncap) Recv(p *netem.Packet) {
	if !p.Background {
		p.TEID = g.Bearers.Establish(p.IMSI, p.QCI)
		p.Size += GTPHeaderSize
		p.Tunneled = true
		g.Encapsulated++
	}
	if g.Next != nil {
		g.Next.Recv(p)
	}
}

// GTPDecap removes the tunnel header and re-derives the subscriber
// identity from the TEID (dropping packets with unknown TEIDs, as a
// real endpoint must).
type GTPDecap struct {
	Bearers *BearerTable
	Next    netem.Node

	// Pool optionally recycles packets dropped for an unknown TEID.
	Pool *netem.PacketPool

	Decapsulated uint64
	UnknownTEID  uint64
}

// Recv implements netem.Node.
//
//tlcvet:hotpath every tunnelled packet is decapsulated here
func (g *GTPDecap) Recv(p *netem.Packet) {
	if p.Tunneled {
		info, ok := g.Bearers.Resolve(p.TEID)
		if !ok {
			g.UnknownTEID++
			g.Pool.Put(p)
			return
		}
		p.IMSI = info.IMSI
		p.QCI = info.QCI
		p.Size -= GTPHeaderSize
		p.Tunneled = false
		p.TEID = 0
		g.Decapsulated++
	}
	if g.Next != nil {
		g.Next.Recv(p)
	}
}
