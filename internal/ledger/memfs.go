package ledger

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS that models the OS page cache: writes land
// in volatile content, Sync advances the durable watermark, and
// Crash() throws away everything past it. It is the substrate for the
// torture suite and for the deterministic simulation (the testbed
// cannot touch the real disk — that would break replay and the
// simtime discipline).
//
// All methods are mutex-guarded so concurrent-append torture tests
// run clean under -race.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool

	// failAfter, when > 0, arms the torture failpoint (the tests'
	// FailAfterBytes): after that many more content bytes are written
	// across all files, the write tears (a prefix of the last write
	// may land) and every subsequent write or sync returns
	// ErrInjected.
	failAfter int64
	failed    bool
}

// ErrInjected is returned by writes/syncs after the armed failpoint
// trips.
var ErrInjected = errors.New("ledger: injected write failure")

type memFile struct {
	content []byte
	durable int // bytes guaranteed to survive Crash
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// Crash simulates machine death: every file loses content beyond its
// durable watermark. The failpoint is disarmed — the "reboot" writes
// normally.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.files {
		f.content = f.content[:f.durable]
	}
	m.failAfter = 0
	m.failed = false
}

type memHandle struct {
	fs   *MemFS
	name string
}

func (h memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[h.name]
	if f == nil {
		return 0, fs.ErrClosed
	}
	if m.failed {
		return 0, ErrInjected
	}
	if m.failAfter > 0 {
		if int64(len(p)) >= m.failAfter {
			// Tear: a prefix lands in the page cache, then the
			// device "dies" for all subsequent IO.
			torn := int(m.failAfter)
			f.content = append(f.content, p[:torn]...)
			m.failAfter = 0
			m.failed = true
			return torn, ErrInjected
		}
		m.failAfter -= int64(len(p))
	}
	f.content = append(f.content, p...)
	return len(p), nil
}

func (h memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return ErrInjected
	}
	f := m.files[h.name]
	if f == nil {
		return fs.ErrClosed
	}
	f.durable = len(f.content)
	return nil
}

func (h memHandle) Close() error { return nil }

// Create implements FS. The created file starts empty and fully
// volatile (durable = 0) until the first Sync.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed {
		return nil, ErrInjected
	}
	m.files[name] = &memFile{}
	return memHandle{fs: m, name: name}, nil
}

// Open implements FS. The reader observes the page cache (volatile
// content), exactly like a reader on a live machine, but reads a
// snapshot copy taken here: a later append, Crash or Create cannot
// change the bytes under an open reader.
func (m *MemFS) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), f.content...))), nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	prefix := dir + string(filepath.Separator)
	for name := range m.files {
		if strings.HasPrefix(name, prefix) && !strings.ContainsRune(name[len(prefix):], filepath.Separator) {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements FS. Metadata operations are modeled as durable
// immediately (journaled-metadata filesystem semantics); the data they
// point at keeps its own watermark.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[oldname]
	if f == nil {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

var _ FS = (*MemFS)(nil)
