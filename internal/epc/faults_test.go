package epc

import (
	"testing"
	"time"

	"tlc/internal/ledger"
	"tlc/internal/netem"
	"tlc/internal/sim"
)

func TestOFCSCrashRollsBackLossWindow(t *testing.T) {
	o := NewOFCS()
	mk := func(ul, dl uint64) *CDR {
		return &CDR{ServedIMSI: "imsi-1", DataVolumeUplink: ul, DataVolumeDownlink: dl}
	}
	o.CollectAt(mk(100, 10), 1*time.Second)
	o.CollectAt(mk(200, 20), 2*time.Second)
	o.CollectAt(mk(300, 30), 3*time.Second)
	o.CollectAt(mk(400, 40), 4*time.Second)

	// Crash at t=4s with a 2s window: records stamped >= 2s are lost.
	lost := o.Crash(4*time.Second, 2*time.Second)
	if lost != 3 {
		t.Fatalf("lost %d records, want 3", lost)
	}
	u, ok := o.usage["imsi-1"]
	if !ok || u.UL != 100 || u.DL != 10 || u.Records != 1 {
		t.Fatalf("post-crash usage %+v", u)
	}
	if o.Records() != 1 {
		t.Fatalf("post-crash records %d, want 1", o.Records())
	}
	if !o.down || o.Crashes() != 1 {
		t.Fatalf("down=%v crashes=%d", o.down, o.Crashes())
	}

	// While down, collection is lost, not stored.
	o.CollectAt(mk(500, 50), 5*time.Second)
	if o.Records() != 1 {
		t.Fatal("record accepted while down")
	}
	if o.LostRecords() != 4 {
		t.Fatalf("LostRecords %d, want 4", o.LostRecords())
	}
	wantBytes := uint64(200 + 20 + 300 + 30 + 400 + 40 + 500 + 50)
	if o.lostBytes != wantBytes {
		t.Fatalf("LostBytes %d, want %d", o.lostBytes, wantBytes)
	}

	// After restart, collection resumes.
	o.Restart()
	o.CollectAt(mk(600, 60), 6*time.Second)
	if o.Records() != 2 {
		t.Fatalf("post-restart records %d, want 2", o.Records())
	}
	u, _ = o.usage["imsi-1"]
	if u.UL != 700 || u.Records != 2 {
		t.Fatalf("post-restart usage %+v", u)
	}
}

func TestOFCSCrashKeepsQuotaTrip(t *testing.T) {
	o := NewOFCS()
	o.SetPlan(Plan{QuotaBytes: 50})
	fired := 0
	o.OnQuotaExceeded = func(string, uint64) { fired++ }
	o.CollectAt(&CDR{ServedIMSI: "x", DataVolumeUplink: 80}, time.Second)
	if fired != 1 || !o.exceeded["x"] {
		t.Fatalf("quota not tripped: fired=%d", fired)
	}
	o.Crash(time.Second, time.Second)
	if !o.exceeded["x"] {
		t.Fatal("crash rolled back a quota trip")
	}
}

// TestSPGWRestartMeters: restart discards unflushed usage, resets
// baselines, and the next flush charges only post-restart traffic —
// no uint64 underflow in the CDR deltas.
func TestSPGWRestartMeters(t *testing.T) {
	s := sim.NewScheduler()
	mme := NewMME(s)
	g := NewSPGW(s, "gw", mme, nil)
	g.OFCS = NewOFCS()
	mme.Attach("ue1")

	push := func(size int) {
		g.ULNode().Recv(&netem.Packet{IMSI: "ue1", Size: size})
	}
	push(1000)
	s.RunUntil(time.Second)
	g.FlushCDRs(s.Now()) // flush: baseline 1000
	push(500)            // unflushed 500

	lost := g.RestartMeters()
	if lost != 500 {
		t.Fatalf("restart lost %d bytes, want 500", lost)
	}
	if g.Restarts() != 1 || g.RestartLostBytes() != 500 {
		t.Fatalf("restart counters: %d, %d", g.Restarts(), g.RestartLostBytes())
	}
	if got := g.session("ue1").ulMeter.TotalBytes(); got != 0 {
		t.Fatalf("post-restart meter %d, want 0", got)
	}

	push(200)
	g.FlushCDRs(s.Now())
	u, ok := g.OFCS.usage[FormatIMSITrace("ue1")]
	if !ok {
		t.Fatal("no usage after restart flush")
	}
	// 1000 flushed pre-restart + 200 post-restart; the 500 unflushed
	// bytes are gone and must not reappear as a huge underflowed delta.
	if u.UL != 1200 {
		t.Fatalf("charged UL %d, want 1200", u.UL)
	}
}

// TestSPGWFlushClampsForeignMeterReset guards the defensive clamp: a
// meter swapped below the baseline must not underflow the delta.
func TestSPGWFlushClampsForeignMeterReset(t *testing.T) {
	s := sim.NewScheduler()
	mme := NewMME(s)
	g := NewSPGW(s, "gw", mme, nil)
	g.OFCS = NewOFCS()
	mme.Attach("ue1")
	g.ULNode().Recv(&netem.Packet{IMSI: "ue1", Size: 1000})
	g.FlushCDRs(s.Now())

	// Swap the meter out from under the gateway (not via RestartMeters,
	// which resets baselines itself).
	sess := g.session("ue1")
	sess.ulMeter = netem.NewMeter("rogue", s, nil)
	sess.ulMeter.Recv(&netem.Packet{IMSI: "ue1", Size: 10})

	g.FlushCDRs(s.Now())
	u, _ := g.OFCS.usage[FormatIMSITrace("ue1")]
	if u.UL > 2000 {
		t.Fatalf("delta underflowed: charged %d", u.UL)
	}
}

// TestOFCSCrashRecoversFromLedger: the same crash as
// TestOFCSCrashRollsBackLossWindow, but with a durable ledger
// attached and synced on every append — Restart must replay the loss
// window back out of the log, so nothing stays lost except what was
// discarded while down.
func TestOFCSCrashRecoversFromLedger(t *testing.T) {
	fsys := ledger.NewMemFS()
	led, err := ledger.Open(ledger.Options{Dir: "led", FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOFCS()
	o.AttachLedger(led, 1)
	mk := func(seq uint32, ul, dl uint64) *CDR {
		return &CDR{ServedIMSI: "imsi-1", SequenceNumber: seq, DataVolumeUplink: ul, DataVolumeDownlink: dl}
	}
	o.CollectAt(mk(1, 100, 10), 1*time.Second)
	o.CollectAt(mk(2, 200, 20), 2*time.Second)
	o.CollectAt(mk(3, 300, 30), 3*time.Second)
	o.CollectAt(mk(4, 400, 40), 4*time.Second)

	lost := o.Crash(4*time.Second, 2*time.Second)
	if lost != 3 {
		t.Fatalf("lost %d records in the window, want 3", lost)
	}
	// While down, records are gone for good — the OFCS cannot write
	// its log while dead.
	o.CollectAt(mk(5, 500, 50), 5*time.Second)

	recovered := o.Restart()
	if recovered != 3 {
		t.Fatalf("recovered %d records, want the full 3-record loss window", recovered)
	}
	if o.RecoveredRecords() != 3 {
		t.Fatalf("RecoveredRecords %d, want 3", o.RecoveredRecords())
	}
	// LostRecords drops to what the log could not help with: the
	// record discarded while down.
	if o.LostRecords() != 1 {
		t.Fatalf("LostRecords %d after recovery, want 1 (discarded while down)", o.LostRecords())
	}
	if o.LostWindowRecords() != 0 {
		t.Fatalf("LostWindowRecords %d, want 0 — everything was fsynced", o.LostWindowRecords())
	}
	u, _ := o.usage["imsi-1"]
	if u.UL != 1000 || u.DL != 100 || u.Records != 4 {
		t.Fatalf("post-recovery usage %+v, want the full pre-crash aggregate", u)
	}
	if o.lostBytes != 550 {
		t.Fatalf("LostBytes %d, want 550 (the while-down record only)", o.lostBytes)
	}
	// Collection resumes and keeps logging durably.
	o.CollectAt(mk(6, 600, 60), 6*time.Second)
	if o.Records() != 5 {
		t.Fatalf("post-restart records %d, want 5", o.Records())
	}
	if o.appendErrs != 0 {
		t.Fatalf("ledger errors %d", o.appendErrs)
	}
}

// TestOFCSCrashLedgerTornTail: with a group-commit window larger than
// one, the unsynced tail dies with the page cache — recovery brings
// back the fsynced prefix and LostRecords counts exactly the torn
// tail.
func TestOFCSCrashLedgerTornTail(t *testing.T) {
	fsys := ledger.NewMemFS()
	// SyncEvery=4: the log fsyncs after records 4 and 8; records
	// 9-10 sit in the page cache.
	led, err := ledger.Open(ledger.Options{Dir: "led", FS: fsys, SyncEvery: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOFCS()
	o.AttachLedger(led, 1)
	for i := 1; i <= 10; i++ {
		o.CollectAt(&CDR{ServedIMSI: "imsi-1", SequenceNumber: uint32(i), DataVolumeUplink: uint64(i)},
			time.Duration(i)*time.Second)
	}
	// Crash at t=10s with a 9s window: records stamped >= 1s — all
	// ten — are rolled out of memory.
	lost := o.Crash(10*time.Second, 9*time.Second)
	if lost != 10 {
		t.Fatalf("lost %d records, want 10", lost)
	}
	recovered := o.Restart()
	if recovered != 8 {
		t.Fatalf("recovered %d records, want the 8 fsynced ones", recovered)
	}
	if o.LostRecords() != 2 {
		t.Fatalf("LostRecords %d, want 2 (the torn tail)", o.LostRecords())
	}
	if o.LostWindowRecords() != 2 {
		t.Fatalf("LostWindowRecords %d, want 2", o.LostWindowRecords())
	}
	u, _ := o.usage["imsi-1"]
	if u.Records != 8 || u.UL != 1+2+3+4+5+6+7+8 {
		t.Fatalf("post-recovery usage %+v", u)
	}
}

// TestOFCSDoubleCrashRecovery: two crash/restart rounds against one
// ledger must not double-ingest anything — the second recovery
// replays only the second loss window.
func TestOFCSDoubleCrashRecovery(t *testing.T) {
	fsys := ledger.NewMemFS()
	led, err := ledger.Open(ledger.Options{Dir: "led", FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOFCS()
	o.AttachLedger(led, 1)
	for i := 1; i <= 4; i++ {
		o.CollectAt(&CDR{ServedIMSI: "imsi-1", SequenceNumber: uint32(i), DataVolumeUplink: uint64(i)},
			time.Duration(i)*time.Second)
	}
	if lost := o.Crash(4*time.Second, 2*time.Second); lost != 3 {
		t.Fatalf("first crash lost %d, want 3", lost)
	}
	if rec := o.Restart(); rec != 3 {
		t.Fatalf("first recovery %d, want 3", rec)
	}
	for i := 5; i <= 6; i++ {
		o.CollectAt(&CDR{ServedIMSI: "imsi-1", SequenceNumber: uint32(i), DataVolumeUplink: uint64(i)},
			time.Duration(i)*time.Second)
	}
	if lost := o.Crash(6*time.Second, 1*time.Second); lost != 2 {
		t.Fatalf("second crash lost %d, want 2 (stamped >= 5s)", lost)
	}
	if rec := o.Restart(); rec != 2 {
		t.Fatalf("second recovery %d, want 2", rec)
	}
	u, _ := o.usage["imsi-1"]
	if u.Records != 6 || u.UL != 1+2+3+4+5+6 {
		t.Fatalf("post-recovery usage %+v, want all six records exactly once", u)
	}
	if o.LostRecords() != 0 || o.RecoveredRecords() != 5 {
		t.Fatalf("lost=%d recovered=%d, want 0/5", o.LostRecords(), o.RecoveredRecords())
	}
}
