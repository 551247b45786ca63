package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"sort"
)

// Segment header: [magic 8]["gen" u64 LE][idx u64 LE]. A segment whose
// header doesn't match is treated as torn at offset 0.
const segHeader = 24

var segMagic = [8]byte{'T', 'L', 'C', 'L', 'E', 'D', 'G', '1'}

func segmentHeader(gen, idx uint64) [segHeader]byte {
	var h [segHeader]byte
	copy(h[:8], segMagic[:])
	binary.LittleEndian.PutUint64(h[8:16], gen)
	binary.LittleEndian.PutUint64(h[16:24], idx)
	return h
}

// replaySegment verifies data as segment (gen, idx) and streams every
// verified record through fn (which may be nil). It returns the byte
// offset of the verified prefix and, if the segment ends in a torn or
// corrupt record — or fn itself errored — a non-nil tear describing
// why the scan stopped there.
func replaySegment(data []byte, gen, idx uint64, fn func(*Record) error) (verified int, tear error) {
	if len(data) < segHeader {
		return 0, errShortFrame
	}
	want := segmentHeader(gen, idx)
	for i := 0; i < segHeader; i++ {
		if data[i] != want[i] {
			return 0, fmt.Errorf("ledger: segment header mismatch at byte %d", i)
		}
	}
	n, tear := scanSegment(data[segHeader:], fn)
	return segHeader + n, tear
}

// scanSegment walks the framed records in b (no segment header),
// calling fn for each verified, decodable record. It returns the
// length of the verified prefix and a non-nil tear if the scan
// stopped before the end. It never panics on arbitrary input — the
// fuzz target FuzzLedgerReplay holds it to that.
func scanSegment(b []byte, fn func(*Record) error) (verified int, tear error) {
	off := 0
	var rec Record
	for off < len(b) {
		payload, size, err := nextFrame(b[off:])
		if err != nil {
			return off, err
		}
		if err := decodeRecord(payload, &rec); err != nil {
			// CRC says the bytes are what was written, but the
			// payload doesn't decode: a writer bug or hand-edited
			// log. Refuse to surface it.
			return off, err
		}
		if fn != nil {
			if err := fn(&rec); err != nil {
				return off, callbackError{err}
			}
		}
		off += size
	}
	return off, nil
}

// callbackError marks a replay stop caused by the caller's fn, not by
// log damage: it must propagate as an error, never trigger repair.
type callbackError struct{ err error }

func (e callbackError) Error() string { return "ledger: replay callback: " + e.err.Error() }
func (e callbackError) Unwrap() error { return e.err }

// ErrNoLedger is returned by Replay (and so Audit) when the directory
// exists but holds no ledger generation — nothing was ever appended
// there.
var ErrNoLedger = errors.New("ledger: no ledger")

// ErrDirNotExist is returned by Replay (and so Audit) when the ledger
// directory itself does not exist. It gets its own identity because
// for an audit query it almost always means a mistyped -ledger-dir,
// not a legitimately empty store.
var ErrDirNotExist = errors.New("ledger: directory does not exist")

// ErrCorrupt is returned by Replay (and so Audit) at the first record
// it cannot verify, after fn has seen every record before it. Replay
// never repairs; Open is the one path that truncates damage away.
var ErrCorrupt = errors.New("ledger: corrupt log")

// Replay streams every verified record of the ledger in dir through
// fn, read-only: no repair, no new segment, no handle kept. It is the
// audit path — it works on a live ledger's directory as well as a
// closed one, though there a record caught mid-write reads as damage.
// Damage is reported as ErrCorrupt, never skipped, so an audit cannot
// mistake a shortened log for the whole one.
func Replay(fsys FS, dir string, fn func(*Record) error) error {
	if fsys == nil {
		fsys = DirFS{}
	}
	gen, err := readCurrent(fsys, dir)
	if err != nil {
		return err
	}
	if gen == 0 {
		// No CURRENT: tell a missing directory apart from an existing
		// but empty one — the former is an operator pointing the audit
		// at the wrong path and deserves a precise error.
		if _, derr := fsys.ReadDir(dir); derr != nil {
			if errors.Is(derr, fs.ErrNotExist) {
				return fmt.Errorf("%w: %s", ErrDirNotExist, dir)
			}
			return fmt.Errorf("ledger: list %s: %w", dir, derr)
		}
		return fmt.Errorf("%w at %s", ErrNoLedger, dir)
	}
	segs, err := listSegments(fsys, dir, gen)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		data, err := fsys.ReadFile(join(dir, seg.name))
		if err != nil {
			return fmt.Errorf("ledger: read segment: %w", err)
		}
		if verified, tear := replaySegment(data, seg.gen, seg.idx, fn); tear != nil {
			var cb callbackError
			if errors.As(tear, &cb) {
				return cb.err
			}
			return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, seg.name, verified, tear)
		}
	}
	return nil
}

// UsageKey identifies one subscriber's usage within one cycle.
type UsageKey struct {
	Cycle      uint64
	Subscriber string
}

// UsageAgg is the aggregate usage behind a UsageKey.
type UsageAgg struct {
	UL, DL  uint64
	Records uint32
}

// State is the canonical materialization of a ledger: what you get by
// replaying it front to back. Compaction must preserve it exactly —
// the property tests compare the State of a compacted ledger against
// the State of the uncompacted original.
type State struct {
	// Usage aggregates every CDR ever logged, settled or not.
	Usage map[UsageKey]UsageAgg
	// Settled is the set of cycles marked settled.
	Settled map[uint64]bool
	// CDRs holds the individual records of unsettled cycles, in
	// append order (settled cycles' records live only in Usage).
	CDRs []Record
	// PoCs holds every settled proof-of-charge, in append order.
	// Proofs are never folded away: they are the billable evidence.
	PoCs []Record
	// Chains holds every settled roaming chain, in append order.
	// Like PoCs they are evidence and survive compaction verbatim.
	Chains []Record
}

// NewState returns an empty State.
func NewState() *State {
	return &State{
		Usage:   make(map[UsageKey]UsageAgg),
		Settled: make(map[uint64]bool),
	}
}

// Apply folds one replayed record into the state. Pass it as the
// replay callback: records arrive in append order.
func (s *State) Apply(rec *Record) error {
	switch rec.Kind {
	case KindCDR:
		k := UsageKey{rec.Cycle, rec.Subscriber}
		agg := s.Usage[k]
		agg.UL += rec.UL
		agg.DL += rec.DL
		agg.Records++
		s.Usage[k] = agg
		s.CDRs = append(s.CDRs, cloneRecord(rec))
	case KindPoC:
		s.PoCs = append(s.PoCs, cloneRecord(rec))
	case KindChainPoC:
		s.Chains = append(s.Chains, cloneRecord(rec))
	case KindMark:
		s.Settled[rec.Cycle] = true
	case KindSnapshot:
		if rec.Snap == nil {
			return nil
		}
		for _, c := range rec.Snap.Settled {
			s.Settled[c] = true
		}
		for _, e := range rec.Snap.Entries {
			k := UsageKey{e.Cycle, e.Subscriber}
			agg := s.Usage[k]
			agg.UL += e.UL
			agg.DL += e.DL
			agg.Records += e.Records
			s.Usage[k] = agg
		}
	}
	return nil
}

// Finish drops the individual CDRs of settled cycles (their usage
// stays in Usage) and returns the state for chaining. Call it once
// after the replay completes.
func (s *State) Finish() *State {
	kept := s.CDRs[:0]
	for i := range s.CDRs {
		if !s.Settled[s.CDRs[i].Cycle] {
			kept = append(kept, s.CDRs[i])
		}
	}
	s.CDRs = kept
	return s
}

// SettledCycles returns the settled set in ascending order.
func (s *State) SettledCycles() []uint64 {
	out := make([]uint64, 0, len(s.Settled))
	for c := range s.Settled {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cloneRecord deep-copies rec so pooled decode buffers can be reused.
func cloneRecord(rec *Record) Record {
	out := *rec
	if rec.Proof != nil {
		out.Proof = append([]byte(nil), rec.Proof...)
	}
	if rec.Snap != nil {
		snap := *rec.Snap
		snap.Settled = append([]uint64(nil), rec.Snap.Settled...)
		snap.Entries = append([]SnapEntry(nil), rec.Snap.Entries...)
		out.Snap = &snap
	}
	return out
}
