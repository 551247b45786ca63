package roaming

import (
	"crypto/rsa"
	"errors"
	"testing"
	"time"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

var (
	byzVendorKeys  *poc.KeyPair
	byzVisitedKeys *poc.KeyPair
	byzHomeKeys    *poc.KeyPair
	byzPlan        = poc.Plan{TStart: 0, TEnd: int64(time.Hour), C: 0.5}
)

func init() {
	rng := sim.NewRNG(9876)
	var err error
	if byzVendorKeys, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("vendor")); err != nil {
		panic(err)
	}
	if byzVisitedKeys, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("visited")); err != nil {
		panic(err)
	}
	if byzHomeKeys, err = poc.GenerateKeyPair(poc.DefaultKeyBits, rng.Fork("home")); err != nil {
		panic(err)
	}
}

func byzRoamConfig(seed int64) protocol.RoamingConfig {
	return protocol.RoamingConfig{
		Plan:            byzPlan,
		VendorKeys:      byzVendorKeys,
		VisitedKeys:     byzVisitedKeys,
		HomeKeys:        byzHomeKeys,
		VendorStrategy:  core.HonestStrategy{},
		VisitedStrategy: core.HonestStrategy{},
		HomeStrategy:    core.HonestStrategy{},
		VendorView:      core.View{Sent: 1000, Received: 1000},
		VisitedViewA:    core.View{Sent: 1000, Received: 1000},
		HomeView:        core.View{Sent: 1000, Received: 900},
		RNG:             sim.NewRNG(seed),
	}
}

// TestByzantineVisitedNeverVerifies runs every chain-level attack of
// the byzantine visited operator against a home operator with a
// persistent verifier. No forged chain may ever be accepted.
func TestByzantineVisitedNeverVerifies(t *testing.T) {
	verifier := poc.NewChainVerifier(byzVendorKeys.Public,
		[]*rsa.PublicKey{byzVisitedKeys.Public}, byzHomeKeys.Public)

	// One honest settled cycle gives the replay mode its material.
	cfg := byzRoamConfig(100)
	cfg.Verifier = verifier
	honest, err := protocol.RunRoaming(cfg)
	if err != nil {
		t.Fatal(err)
	}

	verified := 0
	for mi, mode := range ByzChainModes {
		for seed := int64(0); seed < 5; seed++ {
			forger := &Forger{
				Mode:  mode,
				Keys:  byzVisitedKeys,
				Stale: honest.Chain,
			}
			cfg := byzRoamConfig(200 + 100*int64(mi) + seed)
			cfg.Verifier = verifier
			cfg.Forge = forger.Forge
			res, err := protocol.RunRoaming(cfg)
			if err == nil {
				verified++
				t.Errorf("mode %v seed %d: forged chain verified (X2=%d)", mode, seed, res.X2)
				continue
			}
			if !errors.Is(err, protocol.ErrBadChain) {
				t.Errorf("mode %v seed %d: err = %v, want ErrBadChain", mode, seed, err)
			}
		}
	}
	if verified != 0 {
		t.Fatalf("byz_chain_verified = %d, must be 0", verified)
	}

	// The verifier is not burned by the attacks: a fresh honest cycle
	// still settles.
	cfg = byzRoamConfig(300)
	cfg.Verifier = verifier
	if _, err := protocol.RunRoaming(cfg); err != nil {
		t.Fatalf("honest cycle after the battery: %v", err)
	}
}

// TestForgerModesChangeChain sanity-checks each forger actually
// mutates the evidence (a no-op forger would make the battery prove
// nothing).
func TestForgerModesChangeChain(t *testing.T) {
	cfg := byzRoamConfig(400)
	honest, err := protocol.RunRoaming(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := honest.Chain.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	stale := byzRoamConfig(401)
	staleRes, err := protocol.RunRoaming(stale)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range ByzChainModes {
		f := &Forger{Mode: mode, Keys: byzVisitedKeys, Stale: staleRes.Chain}
		forged := f.Forge(honest.Chain)
		data, err := forged.MarshalBinary()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if string(data) == string(base) {
			t.Fatalf("mode %v: forger produced the honest chain", mode)
		}
	}
}
