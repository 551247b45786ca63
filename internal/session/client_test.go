package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// muxOut is one mux frame the client state queued for the server.
type muxOut struct {
	typ     byte
	sid     uint64
	payload []byte
}

// scriptedClient is a client state against the test operator's key
// with sessions 1..n open and their claims still queued.
func scriptedClient(n int) *clientConn {
	cc := edgeClientConfig(n, nil)
	cn := newClientConn(&cc, &opKeys.Private.PublicKey, sim.NewRNG(1))
	for sid := uint64(1); sid <= uint64(n); sid++ {
		cn.open(sid, false)
	}
	return cn
}

// drainOut decodes the length-prefixed mux frames cn queued and
// empties its queue.
func drainOut(t *testing.T, cn *clientConn) []muxOut {
	t.Helper()
	fr := protocol.NewFrameReader(bytes.NewReader(cn.out))
	cn.out = nil
	var out []muxOut
	for {
		frame, err := fr.ReadFrame()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("queued bytes: %v", err)
		}
		typ, sid, payload, err := DecodeMux(frame)
		if err != nil {
			t.Fatalf("queued frame: %v", err)
		}
		out = append(out, muxOut{typ, sid, append([]byte(nil), payload...)})
	}
}

// wantOut checks that the queued frames have these types, sids and
// leading payload bytes (the message kind of a TypeData frame, the
// code of a TypeReject).
func wantOut(t *testing.T, got []muxOut, want ...muxOut) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("queued %d frames, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		g := got[i]
		if g.typ != w.typ || g.sid != w.sid || !bytes.HasPrefix(g.payload, w.payload) {
			t.Fatalf("queued frame %d = type %d sid %d payload % x…, want type %d sid %d payload % x…",
				i, g.typ, g.sid, g.payload[:min(len(g.payload), 4)], w.typ, w.sid, w.payload)
		}
	}
}

// TestClientConnAnswersScriptedFrames feeds the per-conn client state
// the frames a server could send, on one goroutine and with no socket,
// and checks the outcome it counts, the cause it keeps and the frames
// it queues in answer.
func TestClientConnAnswersScriptedFrames(t *testing.T) {
	t.Run("opens", func(t *testing.T) {
		cn := scriptedClient(3)
		wantOut(t, drainOut(t, cn),
			muxOut{TypeData, 1, []byte{1}}, muxOut{TypeData, 2, []byte{1}}, muxOut{TypeData, 3, []byte{1}})
	})

	for _, tc := range []struct {
		name             string
		code             byte
		rejected, failed int
		cause            error
		transient        bool
	}{
		{"overload", RejectOverload, 1, 0, ErrOverload, true},
		{"shutdown", RejectShutdown, 0, 1, ErrEngineStopped, true},
		{"failed", RejectFailed, 0, 1, protocol.ErrBadPeer, false},
		{"bad_message", RejectBadMessage, 0, 1, protocol.ErrBadMessage, false},
	} {
		t.Run("reject_"+tc.name, func(t *testing.T) {
			cn := scriptedClient(1)
			drainOut(t, cn)
			cn.handle(AppendMux(nil, TypeReject, 1, append([]byte{tc.code}, "detail"...)))
			res := cn.res
			if res.Rejected != tc.rejected || res.Failed != tc.failed || res.Settled != 0 {
				t.Fatalf("rejected/failed/settled = %d/%d/%d, want %d/%d/0",
					res.Rejected, res.Failed, res.Settled, tc.rejected, tc.failed)
			}
			if !errors.Is(res.Cause, tc.cause) || protocol.Transient(res.Cause) != tc.transient {
				t.Fatalf("cause %v (transient %v), want %v (transient %v)",
					res.Cause, protocol.Transient(res.Cause), tc.cause, tc.transient)
			}
			if len(cn.table) != 0 {
				t.Fatal("the rejected session is still open")
			}
			wantOut(t, drainOut(t, cn))
		})
	}

	// An in-memory operator answers each claim; the client signs the
	// final PoC, so TypeDone resolves the session.
	finishAsEdge := func(t *testing.T) (*clientConn, *protocol.Machine) {
		t.Helper()
		cn := scriptedClient(1)
		opCfg := operatorEngineConfig().Config
		op := new(protocol.Machine)
		op.Init(&opCfg, &edgeKeys.Private.PublicKey)
		env := protocol.Env{RNG: sim.NewRNG(2)}
		for !op.Done() {
			out := drainOut(t, cn)
			if len(out) != 1 || out[0].typ != TypeData || out[0].sid != 1 {
				t.Fatalf("client queued %+v, want one data frame for sid 1", out)
			}
			if _, err := op.Handle(out[0].payload, &env, func(msg []byte) error {
				cn.handle(AppendMux(nil, TypeData, 1, msg))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if op.Finisher() {
			t.Fatal("the operator signed the final PoC; want the edge to")
		}
		return cn, op
	}
	t.Run("done", func(t *testing.T) {
		cn, op := finishAsEdge(t)
		cn.handle(AppendMux(nil, TypeDone, 1, binary.BigEndian.AppendUint64(nil, op.X())))
		if res := cn.res; res.Settled != 1 || res.Failed != 0 || res.Cause != nil ||
			len(res.Receipts) != 1 || res.Receipts[0].X != op.X() {
			t.Fatalf("result %+v, want one receipt at X=%d", res, op.X())
		}
	})
	t.Run("done_wrong_x", func(t *testing.T) {
		cn, op := finishAsEdge(t)
		cn.handle(AppendMux(nil, TypeDone, 1, binary.BigEndian.AppendUint64(nil, op.X()+1)))
		if res := cn.res; res.Settled != 0 || res.Failed != 1 || !errors.Is(res.Cause, protocol.ErrBadMessage) {
			t.Fatalf("settled/failed = %d/%d cause %v, want 0/1 and ErrBadMessage", res.Settled, res.Failed, res.Cause)
		}
		if len(cn.table) != 0 {
			t.Fatal("the session is still open")
		}
	})

	t.Run("unknown_sid", func(t *testing.T) {
		cn := scriptedClient(1)
		drainOut(t, cn)
		cn.handle(AppendMux(nil, TypeReject, 9, []byte{RejectFailed}))
		cn.handle(AppendMux(nil, TypeDone, 9, make([]byte, 8)))
		cn.handle(AppendMux(nil, TypeData, 9, []byte{2, 0}))
		if res := cn.res; res.Settled+res.Rejected+res.Failed != 0 || res.Cause != nil {
			t.Fatalf("frames for an unknown sid moved the result: %+v", res)
		}
		if len(cn.table) != 1 {
			t.Fatal("a frame for an unknown sid closed the open session")
		}
		wantOut(t, drainOut(t, cn))
	})

	t.Run("bad_data", func(t *testing.T) {
		cn := scriptedClient(2)
		drainOut(t, cn)
		cn.handle(AppendMux(nil, TypeData, 2, []byte{9, 9}))
		if res := cn.res; res.Failed != 1 || !errors.Is(res.Cause, protocol.ErrBadMessage) {
			t.Fatalf("failed %d cause %v, want 1 and ErrBadMessage", res.Failed, res.Cause)
		}
		wantOut(t, drainOut(t, cn), muxOut{TypeReject, 2, []byte{RejectFailed}})
	})

	t.Run("malformed", func(t *testing.T) {
		cn := scriptedClient(3)
		drainOut(t, cn)
		cn.handle([]byte{TypeData, 0, 1})
		if res := cn.res; res.Failed != 3 || !errors.Is(res.Cause, ErrMuxFrame) || !protocol.Transient(res.Cause) {
			t.Fatalf("failed %d cause %v, want 3 and a transient ErrMuxFrame", res.Failed, res.Cause)
		}
		if len(cn.table) != 0 {
			t.Fatal("sessions still open after a malformed frame")
		}
		wantOut(t, drainOut(t, cn))
	})
}
