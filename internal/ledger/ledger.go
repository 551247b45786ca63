package ledger

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Options configures a Ledger. Zero values select the defaults noted
// on each field.
type Options struct {
	// Dir is the ledger directory (created if absent).
	Dir string
	// FS is the filesystem; nil selects DirFS (the real disk).
	// Simulations and torture tests pass a MemFS.
	FS FS
	// SegmentBytes rotates the active segment once it reaches this
	// size. Default 4 MiB.
	SegmentBytes int
	// SyncEvery is the group-commit window: one fsync covers up to
	// this many appends. 1 syncs every append (no loss window);
	// default 16. The policy is count-based, never time-based, so
	// the ledger stays legal inside the deterministic simulation.
	SyncEvery int
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.FS == nil {
		opts.FS = DirFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 16
	}
	return opts
}

// ErrClosed is returned by operations on a closed (or crashed)
// ledger.
var ErrClosed = errors.New("ledger: closed")

// ErrRecordTooLarge is returned by Append when the encoded record
// exceeds MaxRecordBytes.
var ErrRecordTooLarge = errors.New("ledger: record exceeds MaxRecordBytes")

// Ledger is the append-only charging store. All methods are safe for
// concurrent use.
type Ledger struct {
	mu   sync.Mutex
	opts Options
	fs   FS

	gen     uint64 // live generation (named by CURRENT)
	nextIdx uint64 // index the next segment will get
	cur     File   // active segment handle
	curSize int    // bytes written to the active segment
	curIdx  uint64

	unsynced int    // appends since the last fsync
	payload  []byte // reused record-encode buffer
	buf      []byte // reused frame-encode buffer
	closed   bool
	sticky   error // first write/sync failure; poisons the ledger
}

// Open opens (creating if necessary) the ledger in opts.Dir, replays
// every verified record through fn in append order, repairs a torn
// tail (the damaged segment is rewritten to its verified prefix and
// later segments removed), and starts a fresh segment for appends.
// fn may be nil when the caller only wants the store open.
//
// The replay invariant: every record passed to fn was fully written
// and CRC-verified; a record that was mid-write at the crash is
// truncated away, never surfaced.
func Open(opts Options, fn func(*Record) error) (*Ledger, error) {
	l := &Ledger{opts: opts.withDefaults()}
	l.fs = l.opts.FS
	if err := l.open(fn); err != nil {
		return nil, err
	}
	return l, nil
}

// open (re)initializes the ledger from disk. Caller must not hold mu
// for Open; Reopen locks around it.
func (l *Ledger) open(fn func(*Record) error) error {
	if err := l.fs.MkdirAll(l.opts.Dir); err != nil {
		return fmt.Errorf("ledger: mkdir: %w", err)
	}
	gen, err := readCurrent(l.fs, l.opts.Dir)
	if err != nil {
		return err
	}
	if gen == 0 {
		gen = 1
		if err := writeCurrent(l.fs, l.opts.Dir, gen); err != nil {
			return err
		}
	}
	if err := removeOrphans(l.fs, l.opts.Dir, gen); err != nil {
		return err
	}
	segs, err := listSegments(l.fs, l.opts.Dir, gen)
	if err != nil {
		return err
	}
	lastIdx := uint64(0)
	stop := false
	for _, seg := range segs {
		if stop {
			// Everything after the first torn record is
			// unreachable log: remove it.
			if err := l.fs.Remove(join(l.opts.Dir, seg.name)); err != nil {
				return fmt.Errorf("ledger: drop post-tear segment: %w", err)
			}
			continue
		}
		data, err := l.fs.ReadFile(join(l.opts.Dir, seg.name))
		if err != nil {
			return fmt.Errorf("ledger: read segment: %w", err)
		}
		verified, torn := replaySegment(data, seg.gen, seg.idx, fn)
		if torn != nil {
			var cb callbackError
			if errors.As(torn, &cb) {
				return cb.err
			}
			Metrics.TornTails.Inc()
			Metrics.TruncatedBytes.Add(uint64(len(data) - verified))
			stop = true
			if verified <= segHeader {
				// Nothing valid in this segment at all.
				if err := l.fs.Remove(join(l.opts.Dir, seg.name)); err != nil {
					return fmt.Errorf("ledger: drop torn segment: %w", err)
				}
				continue
			}
			if err := rewritePrefix(l.fs, l.opts.Dir, seg.name, data[:verified]); err != nil {
				return err
			}
		}
		lastIdx = seg.idx
	}
	l.gen = gen
	l.nextIdx = lastIdx + 1
	l.cur = nil
	l.curSize = 0
	l.unsynced = 0
	l.closed = false
	l.sticky = nil
	if err := l.newSegment(); err != nil {
		return err
	}
	Metrics.Opens.Inc()
	return nil
}

// rewritePrefix replaces dir/name with its verified prefix via a tmp
// file and an atomic rename, then syncs the replacement so the repair
// itself is durable.
func rewritePrefix(fsys FS, dir, name string, prefix []byte) error {
	tmp := join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("ledger: repair create: %w", err)
	}
	if _, err := f.Write(prefix); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: repair write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: repair sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: repair close: %w", err)
	}
	if err := fsys.Rename(tmp, join(dir, name)); err != nil {
		return fmt.Errorf("ledger: repair rename: %w", err)
	}
	return nil
}

// newSegment rotates to a fresh segment file: header written, handle
// retained. Caller holds mu (or is single-threaded during open).
func (l *Ledger) newSegment() error {
	name := segName(l.gen, l.nextIdx)
	f, err := l.fs.Create(join(l.opts.Dir, name))
	if err != nil {
		return fmt.Errorf("ledger: create segment: %w", err)
	}
	hdr := segmentHeader(l.gen, l.nextIdx)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: write segment header: %w", err)
	}
	l.cur = f
	l.curIdx = l.nextIdx
	l.curSize = segHeader
	l.nextIdx++
	Metrics.Rotations.Inc()
	return nil
}

// Append writes one record to the log. Durability follows the
// group-commit window: the record is on disk for sure only after the
// batch's fsync (SyncEvery appends, or an explicit Sync). A write or
// sync failure poisons the ledger — every later Append returns the
// first error, because a log with a silent hole must not keep
// growing.
func (l *Ledger) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(rec)
}

func (l *Ledger) appendLocked(rec *Record) error {
	if l.closed {
		return ErrClosed
	}
	if l.sticky != nil {
		return l.sticky
	}
	size := recordSize(rec)
	if size > MaxRecordBytes {
		return ErrRecordTooLarge
	}
	if l.curSize > segHeader && l.curSize+frameHeader+size > l.opts.SegmentBytes {
		// Rotate: the full segment must be durable before we move
		// on, or replay order could have a hole.
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return l.poison(fmt.Errorf("ledger: close segment: %w", err))
		}
		if err := l.newSegment(); err != nil {
			return l.poison(err)
		}
	}
	l.payload = appendRecord(l.payload[:0], rec)
	l.buf = appendFrame(l.buf[:0], l.payload)
	if _, err := l.cur.Write(l.buf); err != nil {
		return l.poison(fmt.Errorf("ledger: append: %w", err))
	}
	l.curSize += len(l.buf)
	l.unsynced++
	Metrics.Appends.Inc()
	Metrics.AppendedBytes.Add(uint64(len(l.buf)))
	if l.unsynced >= l.opts.SyncEvery {
		return l.syncLocked()
	}
	return nil
}

// poison records the first hard failure and returns it.
func (l *Ledger) poison(err error) error {
	if l.sticky == nil {
		l.sticky = err
	}
	return l.sticky
}

// Sync forces the group-commit barrier: everything appended so far is
// durable when it returns nil.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.sticky != nil {
		return l.sticky
	}
	return l.syncLocked()
}

func (l *Ledger) syncLocked() error {
	if l.unsynced == 0 {
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return l.poison(fmt.Errorf("ledger: sync: %w", err))
	}
	l.unsynced = 0
	Metrics.Syncs.Inc()
	return nil
}

// MarkSettled appends a cycle-settled mark and syncs immediately: a
// settlement is the one event that must never sit in the group-commit
// window, because compaction folds everything behind it.
func (l *Ledger) MarkSettled(cycle uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(&Record{Kind: KindMark, Cycle: cycle}); err != nil {
		return err
	}
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Crash simulates process death for tests and the simulation: the
// handle is dropped without syncing (unsynced appends are lost) and,
// when the FS models a page cache (MemFS), its volatile tail is
// discarded too. The ledger is closed; Reopen brings it back with
// replay.
func (l *Ledger) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cur = nil
	l.unsynced = 0
	if c, ok := l.fs.(interface{ Crash() }); ok {
		c.Crash()
	}
}

// Reopen re-runs the startup path — replay every verified record
// through fn, repair the torn tail, fresh segment — on a closed or
// crashed ledger.
func (l *Ledger) Reopen(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil {
		if !l.closed && l.sticky == nil {
			if err := l.syncLocked(); err != nil {
				// Poisoned mid-reopen: fall through and rebuild
				// from what the disk actually holds.
				_ = err
			}
		}
		_ = l.cur.Close() // handle may already be dead; replay re-verifies
		l.cur = nil
	}
	return l.open(fn)
}

// Close syncs and closes the active segment. The ledger can be
// Reopened afterwards.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.sticky != nil {
		_ = l.cur.Close()
		return l.sticky
	}
	if l.unsynced > 0 {
		if err := l.cur.Sync(); err != nil {
			_ = l.cur.Close()
			return fmt.Errorf("ledger: sync on close: %w", err)
		}
		l.unsynced = 0
		Metrics.Syncs.Inc()
	}
	if err := l.cur.Close(); err != nil {
		return fmt.Errorf("ledger: close: %w", err)
	}
	l.cur = nil
	return nil
}

// segment bookkeeping --------------------------------------------------

type segRef struct {
	name string
	gen  uint64
	idx  uint64
}

// segName names segment idx of generation gen. Lexicographic order of
// the names equals numeric order, which listSegments relies on.
func segName(gen, idx uint64) string {
	return fmt.Sprintf("g%06d-%08d.seg", gen, idx)
}

func parseSegName(name string) (gen, idx uint64, ok bool) {
	if len(name) < 2 || name[0] != 'g' || !strings.HasSuffix(name, ".seg") {
		return 0, 0, false
	}
	body := name[1 : len(name)-len(".seg")]
	dash := strings.IndexByte(body, '-')
	if dash <= 0 || dash == len(body)-1 {
		return 0, 0, false
	}
	g, err1 := strconv.ParseUint(body[:dash], 10, 64)
	i, err2 := strconv.ParseUint(body[dash+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return g, i, true
}

// removeOrphans deletes segments of any generation other than the
// live one, plus leftover .tmp files — the debris of a crash during
// compaction (either side of the CURRENT switch) or repair.
func removeOrphans(fsys FS, dir string, gen uint64) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ledger: list for cleanup: %w", err)
	}
	for _, name := range names {
		drop := strings.HasSuffix(name, ".tmp")
		if g, _, ok := parseSegName(name); ok && g != gen {
			drop = true
		}
		if drop {
			if err := fsys.Remove(join(dir, name)); err != nil {
				return fmt.Errorf("ledger: remove orphan %s: %w", name, err)
			}
		}
	}
	return nil
}

// listSegments returns generation gen's segments in index order.
func listSegments(fsys FS, dir string, gen uint64) ([]segRef, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: list segments: %w", err)
	}
	var segs []segRef
	for _, name := range names {
		g, idx, ok := parseSegName(name)
		if !ok || g != gen {
			continue
		}
		segs = append(segs, segRef{name: name, gen: g, idx: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// currentFile is the generation pointer: its content is the decimal
// live generation. It is replaced atomically (tmp + rename), which is
// what makes compaction crash-safe on either side of the switch.
const currentFile = "CURRENT"

func readCurrent(fsys FS, dir string) (uint64, error) {
	data, err := fsys.ReadFile(join(dir, currentFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil // no CURRENT yet: fresh ledger
		}
		// Any other failure (permissions, I/O) must NOT look like a
		// fresh ledger: starting generation 1 over an unreadable
		// CURRENT would orphan the real log on the next compaction.
		return 0, fmt.Errorf("ledger: read CURRENT: %w", err)
	}
	var gen uint64
	if _, err := fmt.Sscanf(string(data), "%d", &gen); err != nil || gen == 0 {
		return 0, fmt.Errorf("ledger: corrupt CURRENT %q", data)
	}
	return gen, nil
}

func writeCurrent(fsys FS, dir string, gen uint64) error {
	tmp := join(dir, currentFile+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("ledger: CURRENT create: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%d\n", gen); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: CURRENT write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("ledger: CURRENT sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: CURRENT close: %w", err)
	}
	if err := fsys.Rename(tmp, join(dir, currentFile)); err != nil {
		return fmt.Errorf("ledger: CURRENT rename: %w", err)
	}
	return nil
}
