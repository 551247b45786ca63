package epc

import (
	"testing"

	"tlc/internal/netem"
)

func TestBearerTable(t *testing.T) {
	bt := NewBearerTable()
	t1 := bt.Establish("imsiA", 9)
	t2 := bt.Establish("imsiA", 7) // dedicated bearer: separate TEID
	t3 := bt.Establish("imsiB", 9)
	if t1 == t2 || t1 == t3 || t2 == t3 {
		t.Fatal("TEIDs not unique per bearer")
	}
	if t1 == 0 || t2 == 0 || t3 == 0 {
		t.Fatal("TEID 0 is reserved")
	}
	// Idempotent establishment.
	if bt.Establish("imsiA", 9) != t1 {
		t.Fatal("re-establish allocated a new TEID")
	}
	info, ok := bt.Resolve(t2)
	if !ok || info.IMSI != "imsiA" || info.QCI != 7 {
		t.Fatalf("Resolve = %+v, %v", info, ok)
	}
	if bt.Len() != 3 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if _, ok := bt.Resolve(0); ok {
		t.Fatal("the reserved TEID 0 resolves")
	}
}

func TestGTPEncapDecapRoundTrip(t *testing.T) {
	bt := NewBearerTable()
	var got *netem.Packet
	decap := &GTPDecap{Bearers: bt, Next: netem.NodeFunc(func(p *netem.Packet) { got = p })}
	encap := &GTPEncap{Bearers: bt, Next: decap}

	encap.Recv(&netem.Packet{IMSI: "imsi1", QCI: 7, Size: 1400})
	if got == nil {
		t.Fatal("packet lost in tunnel")
	}
	if got.Size != 1400 || got.Tunneled || got.TEID != 0 {
		t.Fatalf("decapsulated packet: %+v", got)
	}
	if got.IMSI != "imsi1" || got.QCI != 7 {
		t.Fatal("bearer identity lost")
	}
	if encap.Encapsulated != 1 || decap.Decapsulated != 1 {
		t.Fatalf("counters: %d/%d", encap.Encapsulated, decap.Decapsulated)
	}
}

func TestGTPEncapAddsWireOverhead(t *testing.T) {
	bt := NewBearerTable()
	var onWire int
	encap := &GTPEncap{Bearers: bt, Next: netem.NodeFunc(func(p *netem.Packet) { onWire = p.Size })}
	encap.Recv(&netem.Packet{IMSI: "i", QCI: 9, Size: 1000})
	if onWire != 1000+GTPHeaderSize {
		t.Fatalf("wire size = %d, want %d", onWire, 1000+GTPHeaderSize)
	}
}

func TestGTPDecapDropsUnknownTEID(t *testing.T) {
	bt := NewBearerTable()
	sink := &netem.Sink{}
	decap := &GTPDecap{Bearers: bt, Next: sink}
	decap.Recv(&netem.Packet{Tunneled: true, TEID: 999, Size: 100})
	if sink.Packets != 0 || decap.UnknownTEID != 1 {
		t.Fatalf("unknown TEID forwarded: sink=%d unknown=%d", sink.Packets, decap.UnknownTEID)
	}
}

func TestGTPSkipsBackgroundAndUntunneled(t *testing.T) {
	bt := NewBearerTable()
	sink := &netem.Sink{}
	encap := &GTPEncap{Bearers: bt, Next: sink}
	encap.Recv(&netem.Packet{Background: true, Size: 500})
	if bt.Len() != 0 {
		t.Fatal("background traffic established a bearer")
	}
	decap := &GTPDecap{Bearers: bt, Next: sink}
	decap.Recv(&netem.Packet{Size: 500}) // not tunneled: pass through
	if sink.Packets != 2 {
		t.Fatalf("forwarded %d, want 2", sink.Packets)
	}
}

// TestGTPTunnelZeroAllocs asserts that a packet on an established
// bearer crosses the tunnel, encapsulation then decapsulation, without
// allocating: GTPEncap looks the bearer up on every packet, so its key
// must not be formatted per lookup.
func TestGTPTunnelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	bt := NewBearerTable()
	delivered := 0
	decap := &GTPDecap{Bearers: bt, Next: netem.NodeFunc(func(*netem.Packet) { delivered++ })}
	encap := &GTPEncap{Bearers: bt, Next: decap}
	p := &netem.Packet{IMSI: "001010000000001", QCI: 9, Size: 1400}
	encap.Recv(p) // establish the bearer
	if avg := testing.AllocsPerRun(1000, func() { encap.Recv(p) }); avg != 0 {
		t.Fatalf("GTP tunnel allocates %v per packet, want 0", avg)
	}
	if delivered != 1002 || bt.Len() != 1 || p.Size != 1400 {
		t.Fatalf("delivered %d packets over %d bearers, size %d; want 1002 over 1, size 1400", delivered, bt.Len(), p.Size)
	}
}
