package ledger

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"reflect"
	"strings"
	"testing"
)

// Regression tests for the audit and open edge cases: damage the audit
// must report, the error taxonomy for bad -ledger-dir paths, CURRENT
// read failures that must not masquerade as a fresh ledger, and a
// missing segment that Open must refuse rather than hide.

// TestAuditReportsDamage: one flipped byte inside the 2nd of five
// settled PoCs used to end the replay quietly after the 1st, so the
// audit answered "1 PoC" with a nil error where five had settled.
// Replay and Audit must report the damage as ErrCorrupt, surface only
// the intact prefix, and leave the log byte-identical: repair is
// Open's job alone.
func TestAuditReportsDamage(t *testing.T) {
	const dir = "led"
	fsys := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: fsys, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Record, 5)
	for i := range want {
		want[i] = Record{Kind: KindPoC, Cycle: 7, Subscriber: "imsi-dmg",
			X: uint64(1000 + i), Rounds: 1, Proof: []byte(strings.Repeat(string(rune('a'+i)), 200))}
		if err := l.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg := join(dir, lastSegment(t, fsys, dir))
	data := readFile(t, fsys, seg)
	// A proof byte of the 2nd record: past the segment header, the
	// whole 1st frame and the 2nd frame's own header.
	data[segHeader+frameHeader+recordSize(&want[0])+frameHeader+recordSize(&want[1])-1] ^= 0x40
	writeFile(t, fsys, seg, data)

	var got []Record
	if err := Replay(fsys, dir, collect(&got)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay err = %v, want ErrCorrupt", err)
	}
	if len(got) != 1 {
		t.Fatalf("Replay surfaced %d records, want the 1 before the damage", len(got))
	}
	requirePrefix(t, "replay", got, want)
	if rep, err := Audit(fsys, dir, "imsi-dmg", 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Audit = %+v, %v; want ErrCorrupt", rep, err)
	}
	if after := readFile(t, fsys, seg); string(after) != string(data) {
		t.Fatal("a read-only replay rewrote the damaged segment")
	}
}

// TestAuditDirErrors: a nonexistent ledger directory gets its own
// typed error (an operator typo, not an empty store), distinct from a
// directory that exists but was never written.
func TestAuditDirErrors(t *testing.T) {
	fsys := NewMemFS()
	if _, err := Audit(fsys, "no/such/dir", "imsi-1", 1); !errors.Is(err, ErrDirNotExist) {
		t.Fatalf("missing dir: err = %v, want ErrDirNotExist", err)
	}
	if err := fsys.MkdirAll("empty"); err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(fsys, "empty", "imsi-1", 1); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("empty dir: err = %v, want ErrNoLedger", err)
	}
}

// denyFS fails Open on CURRENT with a permission error, leaving
// everything else intact — the shape of a ledger directory an
// operator can list but not read.
type denyFS struct{ *MemFS }

func (d denyFS) Open(name string) (io.ReadCloser, error) {
	if strings.HasSuffix(name, currentFile) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrPermission}
	}
	return d.MemFS.Open(name)
}

// TestOpenPropagatesCurrentReadError: an unreadable CURRENT must fail
// Open. The old behavior treated every read error as "fresh ledger"
// and silently wrote a new CURRENT over the existing log.
func TestOpenPropagatesCurrentReadError(t *testing.T) {
	const dir = "led"
	mem := NewMemFS()
	l, err := Open(Options{Dir: dir, FS: mem, SyncEvery: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Kind: KindCDR, Cycle: 1, Subscriber: "imsi-1", UL: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, FS: denyFS{mem}, SyncEvery: 1}, nil); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Open over unreadable CURRENT: err = %v, want the permission error", err)
	}
	// Same contract on the read-only audit path.
	if _, err := Audit(denyFS{mem}, dir, "imsi-1", 1); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Audit over unreadable CURRENT: err = %v, want the permission error", err)
	}
}

// TestMissingSegmentIsCorrupt: a generation's segments are numbered
// 1..n, so a hole in the numbering is a lost file. Replay used to
// walk past it and return the records around it with a nil error, and
// Open replayed them too and started its next segment after the hole.
// Replay must hand fn the records before the hole and then return
// ErrCorrupt naming the missing segment; Open must return the same
// error and leave every file as it was, because the segments after
// the hole are intact receipts.
func TestMissingSegmentIsCorrupt(t *testing.T) {
	for _, missing := range []uint64{1, 3} {
		t.Run(fmt.Sprintf("segment%d", missing), func(t *testing.T) {
			const dir = "led"
			const segBytes = 512
			fsys := NewMemFS()
			l, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: segBytes, SyncEvery: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := fill(t, l, 0x707, 40)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			name := segName(1, missing)
			if err := fsys.Remove(join(dir, name)); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, fsys, dir)
			prior, _ := segmentEnds(want, segBytes, missing)

			var got []Record
			err = Replay(fsys, dir, collect(&got))
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
				t.Fatalf("Replay err = %v, want ErrCorrupt naming %s", err, name)
			}
			if len(got) != prior {
				t.Fatalf("Replay surfaced %d records, want the %d before the hole", len(got), prior)
			}
			requirePrefix(t, "replay", got, want)

			if _, err := Open(Options{Dir: dir, FS: fsys, SegmentBytes: segBytes}, nil); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
				t.Fatalf("Open err = %v, want ErrCorrupt naming %s", err, name)
			}
			if after := dirContents(t, fsys, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("Open changed the directory around a hole: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// dirContents maps every file in dir to its content.
func dirContents(t *testing.T, fsys *MemFS, dir string) map[string]string {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(names))
	for _, name := range names {
		files[name] = string(readFile(t, fsys, join(dir, name)))
	}
	return files
}
