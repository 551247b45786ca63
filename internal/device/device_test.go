package device

import (
	"testing"

	"tlc/internal/netem"
)

func TestModemCountsBothDirections(t *testing.T) {
	m := &Modem{}
	sinkUL := &netem.Sink{}
	sinkDL := &netem.Sink{}
	ul := m.ULNode(sinkUL)
	dl := m.DLNode(sinkDL)
	ul.Recv(&netem.Packet{Size: 100})
	ul.Recv(&netem.Packet{Size: 200})
	dl.Recv(&netem.Packet{Size: 50})
	gotUL, gotDL := m.CounterSnapshot()
	if gotUL != 300 || gotDL != 50 {
		t.Fatalf("snapshot = (%d, %d), want (300, 50)", gotUL, gotDL)
	}
	if sinkUL.Packets != 2 || sinkDL.Packets != 1 {
		t.Fatal("modem did not forward")
	}
}

func TestModemNilNextIsSafe(t *testing.T) {
	m := &Modem{}
	m.ULNode(nil).Recv(&netem.Packet{Size: 10})
	m.DLNode(nil).Recv(&netem.Packet{Size: 20})
	ul, dl := m.CounterSnapshot()
	if ul != 10 || dl != 20 {
		t.Fatalf("snapshot = (%d, %d)", ul, dl)
	}
}

func TestProfilesCalibration(t *testing.T) {
	for _, name := range DeviceNames {
		p, ok := Profiles[name]
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if p.Name != name {
			t.Fatalf("profile name mismatch: %q vs %q", p.Name, name)
		}
		if p.RTT <= 0 || p.NegotiationCrypto <= 0 || p.VerifyPoC <= 0 {
			t.Fatalf("profile %s has non-positive timings: %+v", name, p)
		}
	}
	// The Z840 verification cost must support the paper's 230K
	// verifications/hour on a single workstation.
	z := Profiles["Z840"]
	perHour := float64(3600) / z.VerifyPoC.Seconds()
	if perHour < 200_000 || perHour > 260_000 {
		t.Fatalf("Z840 sustains %.0f verifications/hr, want ~230K", perHour)
	}
	// Paper ordering: Pixel 2 XL is the slowest verifier, Z840 the
	// fastest.
	if !(Profiles["Pixel2XL"].VerifyPoC > Profiles["S7Edge"].VerifyPoC &&
		Profiles["S7Edge"].VerifyPoC > Profiles["EL20"].VerifyPoC &&
		Profiles["EL20"].VerifyPoC > Profiles["Z840"].VerifyPoC) {
		t.Fatal("device verification ordering does not match Figure 17")
	}
}

func TestNegotiationLatencySplit(t *testing.T) {
	// §7.2: crypto contributes ~54.9% of negotiation time, the
	// round-trip ~45.1%. One negotiation includes one RTT.
	for _, name := range DeviceNames {
		p := Profiles[name]
		total := p.NegotiationCrypto + p.RTT
		frac := float64(p.NegotiationCrypto) / float64(total)
		if frac < 0.45 || frac < 0.50 && name != "EL20" {
			t.Fatalf("%s crypto fraction = %.3f, want ~0.55", name, frac)
		}
		if frac > 0.65 {
			t.Fatalf("%s crypto fraction = %.3f, too high", name, frac)
		}
	}
}
