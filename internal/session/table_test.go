package session

import "testing"

// The session table is keyed by the conn that carries a session, so no
// other conn can reach it, whatever ids the two conns carry. These
// tests build conns by hand, with no transport and no worker: frames
// park in the shard queues, and dispatch, abort and eviction only
// touch the table.

// testConn builds a muxConn the way ServeConn does, minus the
// transport: dispatch and eviction only touch id/peerKey/out.
func testConn(id uint64) *muxConn {
	return &muxConn{
		id:      id,
		peerKey: &edgeKeys.Private.PublicKey,
		out:     newOutQueue(),
	}
}

func residentSession(e *Engine, key connSid) *session {
	sh := e.table.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sessions[key]
}

// TestEvictConnSweepsTable: ServeConn's teardown evicts every session
// its conn holds, across all shards, and leaves another conn's alone.
func TestEvictConnSweepsTable(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	doomed, bystander := testConn(9), testConn(10)
	payload := []byte{0x01}
	for sid := uint64(1); sid <= 16; sid++ {
		eng.dispatch(doomed, sid, payload)
	}
	eng.dispatch(bystander, 1, payload)

	eng.evictConn(doomed, nil)

	for _, sh := range eng.table.shards {
		sh.mu.Lock()
		for k := range sh.sessions {
			if k.conn == doomed {
				sh.mu.Unlock()
				t.Fatalf("session %d survived evictConn", k.sid)
			}
		}
		sh.mu.Unlock()
	}
	if s := residentSession(eng, connSid{conn: bystander, sid: 1}); s == nil {
		t.Fatal("evictConn disturbed the bystander conn's session")
	}
	if got := eng.active.Load(); got != 1 {
		t.Fatalf("active = %d after sweep, want 1 (the bystander)", got)
	}
}

// TestAbortIgnoresConnIDAlias: a client abort from a conn whose id
// aliases another conn's resident session must not fail that session;
// only its own conn's abort does.
func TestAbortIgnoresConnIDAlias(t *testing.T) {
	eng, err := NewEngine(operatorEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	owner, alias := testConn(42), testConn(42)
	eng.dispatch(owner, 7, []byte{0x01})
	s := residentSession(eng, connSid{conn: owner, sid: 7})
	if s == nil {
		t.Fatal("session not admitted for its owner")
	}
	eng.abort(alias, 7)
	if got := s.state.Load(); got != stateActive {
		t.Fatalf("aliasing conn aborted the session: state %d", got)
	}
	eng.abort(owner, 7)
	if got := s.state.Load(); got != stateFailed {
		t.Fatalf("owner's abort left state %d, want stateFailed", got)
	}
}
