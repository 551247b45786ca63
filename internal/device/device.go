// Package device models the edge device (UE): the hardware modem with
// tamper-resilient traffic counters (read by the RRC COUNTER CHECK
// procedure, §5.4) and per-device cost profiles calibrated to the
// paper's hardware (HPE EL20, Google Pixel 2 XL, Samsung S7 Edge, HP
// Z840 workstation).
package device

import (
	"time"

	"tlc/internal/netem"
)

// Modem is the 4G/5G hardware modem. Its counters increment for every
// byte that actually crosses the air interface and, being implemented
// in hardware, cannot be altered by the device OS: "we are unaware of
// attacks that can manipulate the cellular hardware modem" (§5.4).
type Modem struct {
	ulBytes uint64
	dlBytes uint64
}

// CounterSnapshot implements ran.ModemCounters.
func (m *Modem) CounterSnapshot() (ulBytes, dlBytes uint64) {
	return m.ulBytes, m.dlBytes
}

// ULNode returns a Node that counts uplink traffic through the modem
// and forwards it to next (the air interface).
func (m *Modem) ULNode(next netem.Node) netem.Node {
	return netem.NodeFunc(func(p *netem.Packet) {
		m.ulBytes += uint64(p.Size)
		if next != nil {
			next.Recv(p)
		}
	})
}

// DLNode returns a Node that counts downlink traffic received over
// the air and forwards it up the stack to next (the application).
func (m *Modem) DLNode(next netem.Node) netem.Node {
	return netem.NodeFunc(func(p *netem.Packet) {
		m.dlBytes += uint64(p.Size)
		if next != nil {
			next.Recv(p)
		}
	})
}

// Profile captures a device's crypto and network timing, calibrated
// against the paper's measurements (Figures 16a and 17).
type Profile struct {
	Name string
	// RTT is the mean device<->network round-trip time and its
	// spread (Figure 16a: ping x200 per device).
	RTT      time.Duration
	RTTSigma time.Duration
	// NegotiationCrypto is the mean device-side cryptographic time
	// in a 1-round PoC negotiation (sign CDA + verify CDR + verify
	// PoC). Paper: crypto contributes 54.9% of negotiation latency.
	NegotiationCrypto      time.Duration
	NegotiationCryptoSigma time.Duration
	// VerifyPoC is the mean time for a full Algorithm 2 public
	// verification on this hardware.
	VerifyPoC      time.Duration
	VerifyPoCSigma time.Duration
}

// Profiles for the paper's evaluation hardware. Means match Figure 17
// (negotiation: 65.8/105.5/93.7 ms on EL20/Pixel 2 XL/S7 Edge;
// verification: 23.2/75.6/58.3/15.7 ms adding the Z840) with the
// crypto/RTT split of §7.2 (54.9% crypto, 45.1% round-trip).
var Profiles = map[string]Profile{
	"EL20": {
		Name: "EL20",
		RTT:  30 * time.Millisecond, RTTSigma: 6 * time.Millisecond,
		NegotiationCrypto: 36100 * time.Microsecond, NegotiationCryptoSigma: 7 * time.Millisecond,
		VerifyPoC: 23200 * time.Microsecond, VerifyPoCSigma: 5 * time.Millisecond,
	},
	"Pixel2XL": {
		Name: "Pixel2XL",
		RTT:  48 * time.Millisecond, RTTSigma: 10 * time.Millisecond,
		NegotiationCrypto: 57900 * time.Microsecond, NegotiationCryptoSigma: 12 * time.Millisecond,
		VerifyPoC: 75600 * time.Microsecond, VerifyPoCSigma: 15 * time.Millisecond,
	},
	"S7Edge": {
		Name: "S7Edge",
		RTT:  42 * time.Millisecond, RTTSigma: 9 * time.Millisecond,
		NegotiationCrypto: 51400 * time.Microsecond, NegotiationCryptoSigma: 10 * time.Millisecond,
		VerifyPoC: 58300 * time.Microsecond, VerifyPoCSigma: 12 * time.Millisecond,
	},
	"Z840": {
		Name: "Z840",
		RTT:  1 * time.Millisecond, RTTSigma: 200 * time.Microsecond,
		NegotiationCrypto: 8 * time.Millisecond, NegotiationCryptoSigma: 1500 * time.Microsecond,
		VerifyPoC: 15700 * time.Microsecond, VerifyPoCSigma: 3 * time.Millisecond,
	},
}

// DeviceNames lists the edge devices (excluding the Z840 server) in
// the order the paper's figures present them.
var DeviceNames = []string{"EL20", "Pixel2XL", "S7Edge"}
