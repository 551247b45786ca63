package protocol

import (
	"errors"
	"testing"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/sim"
)

func machineConfigs(edgeStrat, opStrat core.Strategy, ev, ov core.View) (edge, op *Config) {
	edge = &Config{
		Role: poc.RoleEdge, Plan: plan, Key: edgeKeys.Private,
		Strategy: edgeStrat, View: ev,
	}
	op = &Config{
		Role: poc.RoleOperator, Plan: plan, Key: opKeys.Private,
		Strategy: opStrat, View: ov,
	}
	return edge, op
}

func TestMachineRejectsTamperedMessages(t *testing.T) {
	ec, oc := machineConfigs(core.OptimalStrategy{}, core.OptimalStrategy{},
		core.View{Sent: 1000, Received: 900}, core.View{Sent: 1000, Received: 900})
	var em, om Machine
	em.Init(ec, opKeys.Public)
	om.Init(oc, edgeKeys.Public)
	envE := &Env{RNG: sim.NewRNG(1), Nonce: sim.NewRNG(2)}
	envO := &Env{RNG: sim.NewRNG(3), Nonce: sim.NewRNG(4)}

	var opening []byte
	if err := em.Start(envE, func(msg []byte) error {
		opening = append([]byte(nil), msg...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A flipped signature bit must surface as a peer-validation error,
	// not an accepted claim.
	tampered := append([]byte(nil), opening...)
	tampered[len(tampered)-1] ^= 0xff
	if _, err := om.Handle(tampered, envO, discard); !errors.Is(err, ErrBadPeer) {
		t.Fatalf("tampered CDR: err = %v, want ErrBadPeer", err)
	}

	// Unknown message kinds and truncation are bad messages.
	var fresh Machine
	fresh.Init(oc, edgeKeys.Public)
	if _, err := fresh.Handle([]byte{42, 1, 2}, envO, discard); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown kind: err = %v, want ErrBadMessage", err)
	}
	if _, err := fresh.Handle(nil, envO, discard); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty message: err = %v, want ErrBadMessage", err)
	}
}

func TestMachineRejectsStalePoC(t *testing.T) {
	// Settle one negotiation, then replay its PoC into a second
	// exchange: the replay embeds a CDA the new session never sent.
	ec, oc := machineConfigs(core.OptimalStrategy{}, core.OptimalStrategy{},
		core.View{Sent: 1000, Received: 900}, core.View{Sent: 1000, Received: 900})

	var proof []byte
	var em1, om1 Machine
	em1.Init(ec, opKeys.Public)
	om1.Init(oc, edgeKeys.Public)
	envE := &Env{RNG: sim.NewRNG(1), Nonce: sim.NewRNG(2)}
	envO := &Env{RNG: sim.NewRNG(3), Nonce: sim.NewRNG(4)}
	var toOp [][]byte
	if err := em1.Start(envE, func(msg []byte) error {
		toOp = append(toOp, append([]byte(nil), msg...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var toEdge [][]byte
	for len(toOp) > 0 || len(toEdge) > 0 {
		if len(toOp) > 0 {
			msg := toOp[0]
			toOp = toOp[1:]
			if _, err := om1.Handle(msg, envO, func(m []byte) error {
				toEdge = append(toEdge, append([]byte(nil), m...))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(toEdge) > 0 {
			msg := toEdge[0]
			toEdge = toEdge[1:]
			if msg[0] == 3 {
				proof = msg // capture the operator-bound PoC... or edge-bound
			}
			if _, err := em1.Handle(msg, envE, func(m []byte) error {
				if m[0] == 3 {
					proof = m
				}
				toOp = append(toOp, append([]byte(nil), m...))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if proof == nil {
		t.Fatal("no PoC captured")
	}

	// Second exchange, same parties: advance the operator to the
	// point where it has sent a CDA, then replay the old proof.
	var em2, om2 Machine
	em2.Init(ec, opKeys.Public)
	om2.Init(oc, edgeKeys.Public)
	var opening2 []byte
	if err := em2.Start(envE, func(msg []byte) error {
		opening2 = append([]byte(nil), msg...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := om2.Handle(opening2, envO, discard); err != nil {
		t.Fatal(err)
	}
	if _, err := om2.Handle(proof, envO, discard); !errors.Is(err, ErrStaleProof) {
		t.Fatalf("replayed PoC: err = %v, want ErrStaleProof", err)
	}
}

func discard([]byte) error { return nil }
