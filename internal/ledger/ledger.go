package ledger

import (
	"errors"
	"fmt"
	"io"
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
	// size. Default 4 MiB. Reads stream each segment through a fixed
	// buffer, so replay memory does not grow with it.
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
// fn may be nil when the caller only wants the store open. Two kinds
// of damage are not tears: a missing segment, and a frame whose CRC
// verifies but whose payload does not decode (a retired kind, a writer
// bug or a hand edit; a crash cannot make one). For either, Open
// returns ErrCorrupt naming the place and changes no segment, because
// the records after it are intact receipts.
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
	fresh := gen == 0
	if fresh {
		gen = 1
	}
	segs, gap, err := listSegments(l.fs, l.opts.Dir, gen)
	if err != nil {
		return err
	}
	if gap != nil {
		return gap
	}
	if fresh {
		if err := writeCurrent(l.fs, l.opts.Dir, gen); err != nil {
			return err
		}
	}
	if err := removeOrphans(l.fs, l.opts.Dir); err != nil {
		return err
	}
	sc := newScanner()
	lastIdx := uint64(0)
	for i, seg := range segs {
		end, err := sc.scanFile(l.fs, l.opts.Dir, seg, fn)
		if err != nil {
			return err
		}
		if end.tear == nil {
			lastIdx = seg.idx
			continue
		}
		if errors.Is(end.tear, errUndecodable) {
			return corruptAt(seg, end)
		}
		Metrics.TornTails.Inc()
		Metrics.TruncatedBytes.Add(uint64(end.size - end.verified))
		if err := truncateLog(l.fs, l.opts.Dir, segs[i:], end.verified); err != nil {
			return err
		}
		if end.verified > segHeader {
			lastIdx = seg.idx
		}
		break
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

// truncateLog cuts the log back to the first verified bytes of
// segs[0], where a scan found a tear. Every later segment is
// unreachable log; they go first, last one first, so a failure part
// way leaves the indices contiguous and the same tear for the next
// Open to find. Then segs[0] is rewritten to its verified prefix, or
// removed if no record in it verified.
func truncateLog(fsys FS, dir string, segs []segRef, verified int64) error {
	for i := len(segs) - 1; i > 0; i-- {
		if err := fsys.Remove(join(dir, segs[i].name)); err != nil {
			return fmt.Errorf("ledger: drop post-tear segment: %w", err)
		}
	}
	if verified > segHeader {
		return rewritePrefix(fsys, dir, segs[0].name, verified)
	}
	if err := fsys.Remove(join(dir, segs[0].name)); err != nil {
		return fmt.Errorf("ledger: drop torn segment: %w", err)
	}
	return nil
}

// rewritePrefix replaces dir/name with its first n bytes via a tmp
// file and an atomic rename, then syncs the replacement so the repair
// itself is durable. The prefix streams across with io.CopyN.
func rewritePrefix(fsys FS, dir, name string, n int64) error {
	path := join(dir, name)
	src, err := fsys.Open(path)
	if err != nil {
		return fmt.Errorf("ledger: repair read: %w", err)
	}
	defer src.Close() //tlcvet:allow errdiscard — read-only handle; a failed close loses nothing
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("ledger: repair create: %w", err)
	}
	if _, err := io.CopyN(f, src, n); err != nil {
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
	if err := fsys.Rename(tmp, path); err != nil {
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
// crashed ledger. If it fails, the ledger stays closed.
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
	l.closed = true // until open succeeds
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

// segName names segment idx of generation gen.
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

// removeOrphans deletes leftover .tmp files: the debris of a crash
// during a repair's prefix rewrite or the first write of CURRENT.
func removeOrphans(fsys FS, dir string) error {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ledger: list for cleanup: %w", err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := fsys.Remove(join(dir, name)); err != nil {
			return fmt.Errorf("ledger: remove orphan %s: %w", name, err)
		}
	}
	return nil
}

// listSegments returns generation gen's segments in index order.
// They are numbered 1..n: rotation adds segments only at the end and
// repair drops them only from the end. So a hole in the numbering can
// only come from outside the ledger, a deleted file or a lost
// directory entry. If there is one, segs holds the run before it and
// gap is the ErrCorrupt naming the first missing segment. (A lost last
// segment leaves no hole; it reads as a shorter log.)
func listSegments(fsys FS, dir string, gen uint64) (segs []segRef, gap, err error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("ledger: list segments: %w", err)
	}
	for _, name := range names {
		g, idx, ok := parseSegName(name)
		if !ok || g != gen {
			continue
		}
		segs = append(segs, segRef{name: name, gen: g, idx: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	for i := range segs {
		if want := uint64(i) + 1; segs[i].idx != want {
			return segs[:i], fmt.Errorf("%w: segment %s is missing", ErrCorrupt, segName(gen, want)), nil
		}
	}
	return segs, nil, nil
}

// currentFile names the ledger's generation in decimal, the number
// every segment name and header carries. Open writes it once, as 1,
// when it creates the ledger, through a tmp file and a rename so a
// crash cannot leave it half-written. Its presence is what tells a
// ledger directory from an empty one (ErrNoLedger).
const currentFile = "CURRENT"

func readCurrent(fsys FS, dir string) (uint64, error) {
	f, err := fsys.Open(join(dir, currentFile))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil // no CURRENT yet: fresh ledger
		}
		// Any other failure (permissions, I/O) must NOT look like a
		// fresh ledger: Open would write a new CURRENT over a log it
		// cannot read, and an audit would answer ErrNoLedger for a
		// ledger that exists.
		return 0, fmt.Errorf("ledger: read CURRENT: %w", err)
	}
	data, err := io.ReadAll(f)
	_ = f.Close() // read-only: a failed close loses nothing
	if err != nil {
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
