package session

import (
	"bytes"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"tlc/internal/core"
	"tlc/internal/poc"
	"tlc/internal/protocol"
	"tlc/internal/sim"
)

// TestExploreInterleavings is a seeded explorer of the live path. Per
// seed it joins the client and engine states of 1-3 conns, each
// carrying 1-6 sessions, by in-memory FIFO frame queues on one
// goroutine, and a sim.RNG picks each next input: deliver a conn's next
// frame either way, kill a conn, hang up a conn whose client sessions
// have all resolved, or stop the engine. The seed also picks
// MaxSessions (1 to one above the total), each side's strategy
// (optimal or random-selfish) and how many of each conn's sessions
// forge their final PoC. The invariants are checked after every step
// (check, finish); a failing seed prints the steps that led there,
// which the seed replays.
func TestExploreInterleavings(t *testing.T) {
	const seeds = 200
	var sum exploreStats
	for seed := int64(1); seed <= seeds; seed++ {
		x := newExplorer(t, seed)
		if err := x.run(); err != nil {
			t.Fatalf("seed %d: %v\nsteps:\n%s", seed, err, strings.Join(x.trace, "\n"))
		}
		sum.add(x.stats)
	}
	t.Logf("%d seeds, %d steps: %d sessions, %d settled, %d refused at the cap, %d failed, "+
		"%d forged PoCs refused; %d proofs recorded with no client receipt (%d finished by the engine after the conn died)",
		seeds, sum.steps, sum.sessions, sum.settled, sum.refused, sum.failed,
		sum.forgedRefused, sum.unreceipted, sum.finishedAfterDeath)
}

// exploreStats counts what the explorer's runs did.
type exploreStats struct {
	steps, sessions, settled, refused, failed, forgedRefused int
	// unreceipted counts proofs the engine recorded that no client
	// receipt holds; finishedAfterDeath those of them whose final PoC
	// the engine built after the conn had died.
	unreceipted, finishedAfterDeath int
}

func (s *exploreStats) add(o exploreStats) {
	s.steps += o.steps
	s.sessions += o.sessions
	s.settled += o.settled
	s.refused += o.refused
	s.failed += o.failed
	s.forgedRefused += o.forgedRefused
	s.unreceipted += o.unreceipted
	s.finishedAfterDeath += o.finishedAfterDeath
}

var errConnDied = errors.New("explore: the conn died")

// exConn is one conn as the explorer sees it: both of its states and
// the frame bodies in flight between them, oldest first.
type exConn struct {
	k      int
	srv    *muxConn
	cli    *clientConn
	opened int
	toSrv  [][]byte
	toCli  [][]byte
	// died: the client failed what it held, the frames it wrote still
	// reach the engine and the engine's are lost. hungUp: the client
	// hung up cleanly, all its sessions resolved. closed: the engine
	// read the conn's end and evicted it.
	died, hungUp, closed bool
	diedAt               int
	// final is the step at which either side first sent a session's
	// final PoC, by sid.
	final map[uint64]int
	// receipts is how many client receipts check has matched.
	receipts int
}

// explorer runs one seed.
type explorer struct {
	rng     *sim.RNG
	eng     *Engine
	max     int
	conns   []*exConn
	stopped bool
	step    int
	trace   []string
	// records are the settlements the conn states handed over, in
	// order; recorded indexes them by proof bytes.
	records  []ProofRecord
	recorded map[string]ProofRecord
	// misuse is set if the engine calls its Recorder: the conn state
	// must hand settlements back instead.
	misuse error
	stats  exploreStats
}

func newExplorer(t *testing.T, seed int64) *explorer {
	t.Helper()
	rng := sim.NewRNG(seed)
	x := &explorer{rng: rng, recorded: map[string]ProofRecord{}}
	strategy := func() core.Strategy {
		if rng.Intn(2) == 0 {
			return core.OptimalStrategy{}
		}
		return core.RandomSelfishStrategy{}
	}
	sessions := make([]int, 1+rng.Intn(3))
	total := 0
	for k := range sessions {
		sessions[k] = 1 + rng.Intn(6)
		total += sessions[k]
	}
	forge := rng.Intn(3)
	x.max = 1 + rng.Intn(total+1)

	ec := operatorEngineConfig()
	ec.Strategy, ec.MaxSessions, ec.Seed = strategy(), x.max, seed
	ec.Recorder = func(ProofRecord) { x.misuse = errors.New("a conn state called the Recorder") }
	var err error
	if x.eng, err = NewEngine(ec); err != nil {
		t.Fatal(err)
	}
	cc := edgeClientConfig(total, nil)
	cc.Strategy, cc.KeepProof = strategy(), true
	edgeDER, err := x509.MarshalPKIXPublicKey(&edgeKeys.Private.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	x.trace = append(x.trace, fmt.Sprintf("conns %v, MaxSessions %d, engine %s, client %s, %d forged per conn",
		sessions, x.max, ec.Strategy.Name(), cc.Strategy.Name(), forge))
	for k, n := range sessions {
		srv, err := x.eng.newMuxConn(Hello(edgeDER))
		if err != nil {
			t.Fatal(err)
		}
		srv.env.Nonce = rng.Fork(fmt.Sprint("engine nonce ", k))
		frames, err := splitFrames(srv.out)
		if err != nil || len(frames) != 1 {
			t.Fatalf("conn %d: %d frames after the hello (err %v), want the key frame", k, len(frames), err)
		}
		srv.out = srv.out[:0]
		serverKey, err := parsePeerKey(frames[0])
		if err != nil {
			t.Fatal(err)
		}
		cli := newClientConn(&cc, serverKey, rng.Fork(fmt.Sprint("client ", k)))
		cli.env.Nonce = rng.Fork(fmt.Sprint("client nonce ", k))
		c := &exConn{k: k, srv: srv, cli: cli, opened: n, final: map[uint64]int{}}
		for i := 0; i < n; i++ {
			cli.open(uint64(i)+1, i < forge)
		}
		if err := x.fromClient(c); err != nil {
			t.Fatal(err)
		}
		x.conns = append(x.conns, c)
	}
	return x
}

// Inputs the explorer picks from, and the weight each enabled one
// gets: a conn dies, or the engine stops, about once in twenty
// deliveries.
const (
	toEngine = iota
	toClient
	connDies
	hangUp
	engineReadsEnd
	engineStops
)

var inputWeight = [...]int{toEngine: 20, toClient: 20, connDies: 1, hangUp: 20, engineReadsEnd: 20, engineStops: 1}

type input struct {
	kind int
	c    *exConn
}

// run steps the seed until no input is enabled, that is until the
// engine has read every conn's end, and then checks what only the
// whole run shows.
func (x *explorer) run() error {
	for {
		var ins []input
		weights := 0
		enable := func(kind int, c *exConn) {
			ins = append(ins, input{kind, c})
			weights += inputWeight[kind]
		}
		for _, c := range x.conns {
			live := !c.died && !c.hungUp
			if len(c.toSrv) > 0 && !c.closed {
				enable(toEngine, c)
			}
			if len(c.toCli) > 0 && live {
				enable(toClient, c)
			}
			if live {
				enable(connDies, c)
			}
			if live && len(c.cli.table) == 0 {
				enable(hangUp, c)
			}
			if !live && len(c.toSrv) == 0 && !c.closed {
				enable(engineReadsEnd, c)
			}
		}
		if len(ins) == 0 {
			return x.finish()
		}
		if !x.stopped {
			enable(engineStops, nil)
		}
		r := x.rng.Intn(weights)
		in := ins[0]
		for _, in = range ins {
			if r -= inputWeight[in.kind]; r < 0 {
				break
			}
		}
		x.step++
		line, err := x.apply(in)
		x.trace = append(x.trace, fmt.Sprintf("%4d  %s", x.step, line))
		if err == nil {
			err = x.check()
		}
		if err != nil {
			return fmt.Errorf("step %d: %w", x.step, err)
		}
	}
}

// apply takes one input and returns its trace line.
func (x *explorer) apply(in input) (string, error) {
	c := in.c
	switch in.kind {
	case toEngine:
		frame := c.toSrv[0]
		c.toSrv = c.toSrv[1:]
		if err := c.srv.handle(frame); err != nil {
			return "", err
		}
		return fmt.Sprintf("conn %d: the engine reads %s", c.k, describe(frame)), x.fromEngine(c)
	case toClient:
		frame := c.toCli[0]
		c.toCli = c.toCli[1:]
		c.cli.handle(frame)
		return fmt.Sprintf("conn %d: the client reads %s", c.k, describe(frame)), x.fromClient(c)
	case connDies:
		c.died, c.diedAt, c.toCli = true, x.step, nil
		open := len(c.cli.table)
		c.cli.failAll(errConnDied)
		return fmt.Sprintf("conn %d dies with %d client session(s) open", c.k, open), nil
	case hangUp:
		c.hungUp, c.toCli = true, nil
		return fmt.Sprintf("conn %d: the client hangs up", c.k), nil
	case engineReadsEnd:
		var cause error
		if c.died {
			cause = errConnDied
		}
		resident := len(c.srv.sessions)
		c.srv.evict(cause)
		c.closed = true
		return fmt.Sprintf("conn %d: the engine reads its end and evicts %d session(s)", c.k, resident), x.fromEngine(c)
	default:
		x.eng.Stop()
		x.stopped = true
		return "the engine stops", nil
	}
}

// fromClient moves what conn c's client state wrote onto the queue to
// the engine.
func (x *explorer) fromClient(c *exConn) error {
	frames, err := splitFrames(c.cli.out)
	if err != nil {
		return fmt.Errorf("conn %d: the client wrote %w", c.k, err)
	}
	c.cli.out = c.cli.out[:0]
	x.noteFinal(c, frames)
	c.toSrv = append(c.toSrv, frames...)
	return nil
}

// fromEngine moves what conn c's engine state wrote onto the queue to
// the client, unless the client is gone, and takes the step's
// settlements.
func (x *explorer) fromEngine(c *exConn) error {
	frames, err := splitFrames(c.srv.out)
	if err != nil {
		return fmt.Errorf("conn %d: the engine wrote %w", c.k, err)
	}
	if len(frames) != c.srv.frames {
		return fmt.Errorf("conn %d: the engine wrote %d frames and counted %d", c.k, len(frames), c.srv.frames)
	}
	c.srv.out, c.srv.frames = c.srv.out[:0], 0
	x.noteFinal(c, frames)
	if !c.died && !c.hungUp {
		c.toCli = append(c.toCli, frames...)
	}
	for _, pr := range c.srv.settled {
		if err := x.record(pr); err != nil {
			return fmt.Errorf("conn %d sid %d: %w", c.k, pr.SID, err)
		}
	}
	c.srv.settled = c.srv.settled[:0]
	return nil
}

// noteFinal notes the step at which a session's final PoC was sent.
func (x *explorer) noteFinal(c *exConn, frames [][]byte) {
	for _, f := range frames {
		typ, sid, payload, err := DecodeMux(f)
		if _, seen := c.final[sid]; err == nil && typ == TypeData && len(payload) > 0 && payload[0] == 3 && !seen {
			c.final[sid] = x.step
		}
	}
}

// record checks one settlement handed over: its proof passes
// Algorithm 2 under both keys, carries the record's X and is handed
// over once.
func (x *explorer) record(pr ProofRecord) error {
	var proof poc.PoC
	if err := proof.UnmarshalBinary(pr.Proof); err != nil {
		return fmt.Errorf("the recorded proof does not decode: %w", err)
	}
	if err := poc.VerifyStateless(&proof, testPlan, &edgeKeys.Private.PublicKey, &opKeys.Private.PublicKey); err != nil {
		return fmt.Errorf("the recorded proof does not verify: %w", err)
	}
	if proof.X != pr.X {
		return fmt.Errorf("recorded at X=%d, but the proof settles X=%d", pr.X, proof.X)
	}
	if _, dup := x.recorded[string(pr.Proof)]; dup {
		return errors.New("the proof was recorded twice")
	}
	x.recorded[string(pr.Proof)] = pr
	x.records = append(x.records, pr)
	return nil
}

// check holds after every step: the engine's resident count is the
// sessions its conn states hold and within the cap, a conn whose end
// the engine read holds none, each client session has ended at most
// once, no forged PoC settled, and every client receipt reached the
// Recorder with the same X and proof bytes.
func (x *explorer) check() error {
	if x.misuse != nil {
		return x.misuse
	}
	resident := 0
	for _, c := range x.conns {
		resident += len(c.srv.sessions)
		if c.closed && len(c.srv.sessions) != 0 {
			return fmt.Errorf("conn %d holds %d session(s) after the engine read its end", c.k, len(c.srv.sessions))
		}
		res := &c.cli.res
		if ended := res.Settled + res.Rejected + res.Failed + res.ForgedRejected + res.ForgedVerified; ended+len(c.cli.table) != c.opened {
			return fmt.Errorf("conn %d: %d client sessions ended and %d are open, of %d opened", c.k, ended, len(c.cli.table), c.opened)
		}
		if res.ForgedVerified != 0 {
			return fmt.Errorf("conn %d: the engine acked a forged PoC", c.k)
		}
		for _, r := range res.Receipts[c.receipts:] {
			if pr, ok := x.recorded[string(r.Proof)]; !ok || pr.Conn != c.srv.id || pr.X != r.X {
				return fmt.Errorf("conn %d: a client receipt at X=%d never reached the Recorder", c.k, r.X)
			}
		}
		c.receipts = len(res.Receipts)
	}
	if active := x.eng.active.Load(); active != int64(resident) || resident > x.max {
		return fmt.Errorf("the engine counts %d resident sessions; its conns hold %d, and the cap is %d", active, resident, x.max)
	}
	return nil
}

// finish checks the end of the run: nothing is resident, and a proof
// recorded with no client receipt belongs to a conn that died after a
// final PoC of that session was sent (item 2's precondition: the client
// retries a cycle the engine already billed).
func (x *explorer) finish() error {
	if n := x.eng.active.Load(); n != 0 {
		return fmt.Errorf("%d session(s) resident after every conn closed", n)
	}
	receipted := map[string]bool{}
	byID := map[uint64]*exConn{}
	for _, c := range x.conns {
		for _, r := range c.cli.res.Receipts {
			receipted[string(r.Proof)] = true
		}
		byID[c.srv.id] = c
		res := c.cli.res
		x.stats.sessions += c.opened
		x.stats.settled += res.Settled
		x.stats.refused += res.Rejected
		x.stats.failed += res.Failed
		x.stats.forgedRefused += res.ForgedRejected
	}
	for _, pr := range x.records {
		if receipted[string(pr.Proof)] {
			continue
		}
		c := byID[pr.Conn]
		sent, ok := c.final[pr.SID]
		if !c.died || !ok {
			return fmt.Errorf("conn %d sid %d was recorded with no client receipt, but the conn did not die after its final PoC", c.k, pr.SID)
		}
		x.stats.unreceipted++
		if sent > c.diedAt {
			x.stats.finishedAfterDeath++
		}
	}
	x.stats.steps = x.step
	return nil
}

// splitFrames splits the bytes a state wrote into frame bodies.
func splitFrames(out []byte) ([][]byte, error) {
	fr := protocol.NewFrameReader(bytes.NewReader(out))
	var frames [][]byte
	for {
		frame, err := fr.ReadFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return nil, err
		}
		frames = append(frames, bytes.Clone(frame))
	}
}

// describe names a mux frame for the trace.
func describe(frame []byte) string {
	typ, sid, payload, err := DecodeMux(frame)
	switch {
	case err != nil:
		return fmt.Sprintf("a malformed frame (%v)", err)
	case typ == TypeReject && len(payload) > 0:
		return fmt.Sprintf("sid %d reject code %d", sid, payload[0])
	case typ == TypeData && len(payload) > 0 && payload[0] >= 1 && payload[0] <= 3:
		return fmt.Sprintf("sid %d %s", sid, [...]string{"", "CDR", "CDA", "PoC"}[payload[0]])
	case typ == TypeDone:
		return fmt.Sprintf("sid %d done", sid)
	}
	return fmt.Sprintf("sid %d type %d", sid, typ)
}
