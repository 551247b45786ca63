package roaming

import (
	"tlc/internal/poc"
	"tlc/internal/sim"
)

// ByzMode enumerates the byzantine visited operator's chain-level
// attacks. The visited operator is an insider: it holds a genuine key,
// plays the downstream negotiation honestly (the vendor will not
// settle otherwise), and forges only the evidence it relays upstream.
type ByzMode int

const (
	// ByzChainInflate re-countersigns the downstream proof with an
	// inflated relayed volume and claims the inflated volume upstream:
	// the endorsement signature is genuine but contradicts the settled
	// X it binds.
	ByzChainInflate ByzMode = iota
	// ByzChainReplay substitutes an already-settled cycle's link,
	// double-billing the old vendor segment.
	ByzChainReplay
	// ByzChainTamper flips a bit in the countersignature, the shape of
	// any post-hoc edit of the relayed evidence.
	ByzChainTamper
	// ByzChainTruncate drops the vendor link entirely, presenting the
	// upstream settlement as the whole story.
	ByzChainTruncate
)

// ByzChainModes lists every mode for batteries.
var ByzChainModes = []ByzMode{ByzChainInflate, ByzChainReplay, ByzChainTamper, ByzChainTruncate}

// Forger is the byzantine visited operator's chain rewriter; its
// Forge method plugs into protocol.RoamingConfig.Forge.
type Forger struct {
	Mode ByzMode
	// Keys is the visited operator's genuine key pair — the insider
	// can produce valid signatures over forged content.
	Keys *poc.KeyPair
	// RNG draws forgery nonces deterministically.
	RNG *sim.RNG
	// Stale is a previously settled chain for ByzChainReplay.
	Stale *poc.Chain
}

// Forge rewrites the honestly assembled chain per the mode. A mode
// missing its material (no stale chain to replay) falls back to
// tampering so a misconfigured battery still exercises a forgery
// instead of silently passing an honest chain.
func (f *Forger) Forge(ch *poc.Chain) *poc.Chain {
	forged := &poc.Chain{Links: append([]poc.ChainLink(nil), ch.Links...), Final: ch.Final}
	switch f.Mode {
	case ByzChainInflate:
		link := &forged.Links[len(forged.Links)-1]
		cs := link.Endorse
		cs.Relayed *= 2
		if err := cs.Sign(f.Keys.Private); err != nil {
			return forged // unsigned edit still fails verification
		}
		link.Endorse = cs
	case ByzChainReplay:
		if f.Stale == nil {
			return f.tamper(forged)
		}
		// Present the already-settled chain wholesale: every signature
		// is genuine and every volume consistent, so only the home
		// operator's replay set stands between the visited operator
		// and billing the cycle twice.
		forged.Links = append([]poc.ChainLink(nil), f.Stale.Links...)
		forged.Final = f.Stale.Final
	case ByzChainTamper:
		return f.tamper(forged)
	case ByzChainTruncate:
		forged.Links = nil
	}
	return forged
}

func (f *Forger) tamper(ch *poc.Chain) *poc.Chain {
	if len(ch.Links) == 0 {
		return ch
	}
	sig := append([]byte(nil), ch.Links[0].Endorse.Signature...)
	if len(sig) > 0 {
		sig[len(sig)/2] ^= 0x10
	}
	ch.Links[0].Endorse.Signature = sig
	return ch
}
