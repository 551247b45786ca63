package ledger

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the write handle the ledger needs: sequential writes, an
// explicit durability barrier, and close. Torture harnesses substitute
// implementations that fail or tear at a chosen byte.
type File interface {
	io.Writer
	// Sync makes everything written so far durable: after Sync
	// returns nil, the bytes survive a crash.
	Sync() error
	Close() error
}

// FS is the filesystem slice the ledger runs on. Production uses
// DirFS (real files + fsync); simulations and torture tests use MemFS
// whose Sync/Crash semantics model the OS page cache.
type FS interface {
	// Create truncates-or-creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading. The reader sees the
	// file's durable-or-better contents; a missing file is an error
	// matching fs.ErrNotExist.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the names (not paths) of files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	Remove(name string) error
	MkdirAll(dir string) error
}

// DirFS is the production FS: plain files under the OS filesystem,
// Sync = fsync.
type DirFS struct{}

type osFile struct{ f *os.File }

func (o osFile) Write(p []byte) (int, error) { return o.f.Write(p) }
func (o osFile) Sync() error                 { return o.f.Sync() }
func (o osFile) Close() error                { return o.f.Close() }

// Create implements FS.
func (DirFS) Create(name string) (File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (DirFS) Open(name string) (io.ReadCloser, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// ReadDir implements FS.
func (DirFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS. os.Rename is atomic on POSIX filesystems,
// which is what makes a repair's prefix rewrite and the first write
// of CURRENT crash-safe.
func (DirFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (DirFS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (DirFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

var _ FS = DirFS{}

// join builds FS paths. All FS implementations use / separators via
// path/filepath so DirFS works on the host OS and MemFS keys match.
func join(dir, name string) string { return filepath.Join(dir, name) }
