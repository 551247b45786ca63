package ledger

import (
	"fmt"
	"sort"
)

// snapChunk bounds the entries packed into one snapshot record and
// snapBudget bounds its encoded payload bytes. Both limits apply: the
// count keeps chunks cheap to stream through replay, and the byte
// budget is the correctness bound — 8192 entries with max-length
// subscriber ids (or a huge settled-cycle set) would otherwise encode
// past MaxRecordBytes and fail the compaction that tried to write it.
const (
	snapChunk  = 8192
	snapBudget = MaxRecordBytes / 2
)

// Compact folds the settled cycles into a snapshot and switches to a
// new generation:
//
//  1. the live generation is synced and replayed into a State;
//  2. generation g+1 is written — first the snapshot record(s)
//     (settled-cycle set + per-(cycle,subscriber) aggregates of the
//     settled cycles), then every retained record (unsettled CDRs in
//     append order, then all PoCs, then all roaming chains, each in
//     append order);
//  3. CURRENT is atomically switched to g+1;
//  4. generation g is deleted.
//
// A crash anywhere in this sequence is safe: before the CURRENT
// rename the old generation is intact and the half-written g+1 is
// orphan debris (removed on next open); after it, g+1 is complete and
// durable and the old generation is the debris.
func (l *Ledger) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.sticky != nil {
		return l.sticky
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.cur.Close(); err != nil {
		return l.poison(fmt.Errorf("ledger: close for compaction: %w", err))
	}
	l.cur = nil

	// fail recovers from an error before the CURRENT switch: the old
	// generation is intact and any half-written g+1 segments are
	// orphan debris (swept on the next open), but the active segment
	// handle was already closed above — without restoring one, the
	// next Append would dereference a nil handle and wedge the ledger
	// on a compaction failure that was perfectly recoverable.
	fail := func(err error) error {
		if serr := l.newSegment(); serr != nil {
			return l.poison(serr)
		}
		return err
	}

	st := NewState()
	segs, gap, err := listSegments(l.fs, l.opts.Dir, l.gen)
	if err == nil {
		err = gap
	}
	if err != nil {
		return fail(err)
	}
	sc := newScanner()
	for _, seg := range segs {
		end, err := sc.scanFile(l.fs, l.opts.Dir, seg, st.Apply)
		if err == nil {
			err = end.tear
		}
		if err != nil {
			// A synced, live ledger must replay clean end to end.
			return fail(fmt.Errorf("ledger: compaction replay: %w", err))
		}
	}
	preFold := len(st.CDRs)
	st.Finish()

	newGen := l.gen + 1
	w := &segWriter{l: l, gen: newGen, idx: 1}
	for _, snap := range buildSnapshots(st) {
		if err := w.append(&Record{Kind: KindSnapshot, Snap: snap}); err != nil {
			return fail(err)
		}
	}
	for i := range st.CDRs {
		if err := w.append(&st.CDRs[i]); err != nil {
			return fail(err)
		}
	}
	for i := range st.PoCs {
		if err := w.append(&st.PoCs[i]); err != nil {
			return fail(err)
		}
	}
	for i := range st.Chains {
		if err := w.append(&st.Chains[i]); err != nil {
			return fail(err)
		}
	}
	if err := w.finish(); err != nil {
		return fail(err)
	}
	if err := writeCurrent(l.fs, l.opts.Dir, newGen); err != nil {
		return fail(err)
	}
	// The switch is durable; the old generation is now debris. Removal
	// is best-effort — a leftover dead-generation segment is swept by
	// removeOrphans on the next open, and an unlink failure must not
	// fail a compaction whose switch already happened.
	for _, seg := range segs {
		_ = l.fs.Remove(join(l.opts.Dir, seg.name))
	}
	l.gen = newGen
	l.nextIdx = w.idx
	Metrics.Compactions.Inc()
	Metrics.CompactedRecords.Add(uint64(preFold - len(st.CDRs)))
	return l.newSegment()
}

// buildSnapshots chunks the settled portion of st into snapshot
// payloads, packing greedily under both snapChunk and snapBudget.
// The settled-cycle set spreads over as many leading chunks as it
// needs (State.Apply unions Settled across snapshots); entries are
// ordered by (cycle, subscriber) so compaction output is
// deterministic.
func buildSnapshots(st *State) []*Snapshot {
	keys := make([]UsageKey, 0, len(st.Usage))
	for k := range st.Usage {
		if st.Settled[k.Cycle] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Cycle != keys[j].Cycle {
			return keys[i].Cycle < keys[j].Cycle
		}
		return keys[i].Subscriber < keys[j].Subscriber
	})
	settled := st.SettledCycles()
	if len(keys) == 0 && len(settled) == 0 {
		return nil
	}
	var snaps []*Snapshot
	cur := &Snapshot{}
	size := 0
	emit := func() {
		snaps = append(snaps, cur)
		cur = &Snapshot{}
		size = 0
	}
	for _, c := range settled {
		if size+8 > snapBudget {
			emit()
		}
		cur.Settled = append(cur.Settled, c)
		size += 8
	}
	for _, k := range keys {
		// Encoded SnapEntry size per appendRecord: cycle + sublen +
		// subscriber + UL + DL + records.
		esz := 8 + 4 + len(k.Subscriber) + 8 + 8 + 4
		if len(cur.Entries) >= snapChunk || size+esz > snapBudget {
			emit()
		}
		agg := st.Usage[k]
		cur.Entries = append(cur.Entries, SnapEntry{
			Cycle:      k.Cycle,
			Subscriber: k.Subscriber,
			UL:         agg.UL,
			DL:         agg.DL,
			Records:    agg.Records,
		})
		size += esz
	}
	if len(cur.Settled) > 0 || len(cur.Entries) > 0 || len(snaps) == 0 {
		snaps = append(snaps, cur)
	}
	return snaps
}

// segWriter writes a fresh generation's segments with rotation, each
// synced and closed before the next begins.
type segWriter struct {
	l       *Ledger
	gen     uint64
	idx     uint64 // next segment index to create
	cur     File
	size    int
	payload []byte
	buf     []byte
}

// ensure opens the next segment file if none is active.
func (w *segWriter) ensure() error {
	if w.cur != nil {
		return nil
	}
	name := segName(w.gen, w.idx)
	f, err := w.l.fs.Create(join(w.l.opts.Dir, name))
	if err != nil {
		return fmt.Errorf("ledger: compaction create: %w", err)
	}
	hdr := segmentHeader(w.gen, w.idx)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: compaction header: %w", err)
	}
	w.cur = f
	w.size = segHeader
	w.idx++
	return nil
}

func (w *segWriter) append(rec *Record) error {
	size := recordSize(rec)
	if size > MaxRecordBytes {
		return ErrRecordTooLarge
	}
	if w.cur != nil && w.size+frameHeader+size > w.l.opts.SegmentBytes {
		if err := w.closeCur(); err != nil {
			return err
		}
	}
	if err := w.ensure(); err != nil {
		return err
	}
	w.payload = appendRecord(w.payload[:0], rec)
	w.buf = appendFrame(w.buf[:0], w.payload)
	if _, err := w.cur.Write(w.buf); err != nil {
		_ = w.cur.Close()
		return fmt.Errorf("ledger: compaction write: %w", err)
	}
	w.size += len(w.buf)
	return nil
}

func (w *segWriter) closeCur() error {
	if err := w.cur.Sync(); err != nil {
		_ = w.cur.Close()
		return fmt.Errorf("ledger: compaction sync: %w", err)
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("ledger: compaction close: %w", err)
	}
	w.cur = nil
	return nil
}

func (w *segWriter) finish() error {
	// An empty generation still gets one header-only segment so the
	// directory names the generation; replay of it yields nothing.
	if w.cur == nil && w.idx == 1 {
		if err := w.ensure(); err != nil {
			return err
		}
	}
	if w.cur != nil {
		return w.closeCur()
	}
	return nil
}
