// Package crashfs enumerates the crash states of a durable store, the way
// ALICE does (Pillai et al., OSDI '14): it records every file operation the
// store makes through fsutil.FS — writes with their bytes and offsets,
// syncs, truncations, renames, removals, directory syncs — and rebuilds
// the directory a crash after each prefix of them would leave, so a test
// can open every one. A prefix is a crash state when the file system
// persists operations in the order they were made; CheckSyncOrder holds
// the store to the discipline that makes that model sound for its logs.
// Only tests import it.
package crashfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsutil"
)

// Kind names a recorded operation.
type Kind int

const (
	Open Kind = iota // a file opened with O_CREATE or O_TRUNC
	Write
	Sync
	Truncate
	Rename
	Remove
	Mkdir
	SyncDir
)

var kindNames = [...]string{"open", "write", "sync", "truncate", "rename", "remove", "mkdir", "syncdir"}

func (k Kind) String() string { return kindNames[k] }

// Op is one recorded operation. Paths are relative to the recorded root.
type Op struct {
	Kind Kind
	Path string
	To   string // Rename: the new path
	Flag int    // Open: the flags
	Off  int64  // Write: the offset; Truncate: the size
	Data []byte // Write: the bytes
}

func (o Op) String() string {
	switch o.Kind {
	case Write:
		return fmt.Sprintf("write %s @%d +%d", o.Path, o.Off, len(o.Data))
	case Truncate:
		return fmt.Sprintf("truncate %s to %d", o.Path, o.Off)
	case Rename:
		return fmt.Sprintf("rename %s -> %s", o.Path, o.To)
	}
	return fmt.Sprintf("%s %s", o.Kind, o.Path)
}

// Recorder is an fsutil.FS over the one it replaces that records the
// operations made under one directory while recording is on.
type Recorder struct {
	fs   fsutil.FS // the file system under the recorder
	mu   sync.Mutex
	root string // "" while not recording
	base string // a copy of root as it was when recording started
	ops  []Op
	open map[*file]struct{} // files not yet closed, renamed along with their path

	held    string        // Hold's path prefix
	gate    chan struct{} // closed by Hold's release
	arrived chan struct{} // closed when a held write first waits
}

// Install makes a Recorder fsutil.OS for the rest of the test. Stores
// opened afterwards make every file call through it.
func Install(t testing.TB) *Recorder {
	r := &Recorder{fs: fsutil.OS, open: make(map[*file]struct{})}
	fsutil.OS = r
	t.Cleanup(func() { fsutil.OS = r.fs })
	return r
}

// Start copies dir, the state every crash state grows from, and records
// the operations made under it from now on. The store must be idle.
func (r *Recorder) Start(t testing.TB, dir string) {
	t.Helper()
	base := t.TempDir()
	if err := copyTree(dir, base); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.root, r.base, r.ops = filepath.Clean(dir), base, nil
}

// Stop ends recording and returns the operations recorded since Start.
func (r *Recorder) Stop() *Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	l := &Log{base: r.base, ops: r.ops}
	r.root, r.ops = "", nil
	return l
}

// Hold makes every write to a file whose path starts with prefix (a log
// and the temporary name a checkpoint installs it under) wait until the
// returned release is called, so a test can act while a store is stopped
// at that write. waiting is closed once a write waits. Release may be
// called more than once.
func (r *Recorder) Hold(prefix string) (waiting <-chan struct{}, release func()) {
	gate, arrived := make(chan struct{}), make(chan struct{})
	r.mu.Lock()
	r.held, r.gate, r.arrived = prefix, gate, arrived
	r.mu.Unlock()
	var once sync.Once
	return arrived, func() {
		once.Do(func() {
			r.mu.Lock()
			r.held, r.gate = "", nil
			r.mu.Unlock()
			close(gate)
		})
	}
}

// rel returns name relative to the recorded root, or false when name is
// outside it or nothing is recorded.
func (r *Recorder) rel(name string) (string, bool) {
	if r.root == "" {
		return "", false
	}
	rel, err := filepath.Rel(r.root, name)
	if err != nil || rel == ".." || strings.HasPrefix(rel, "../") {
		return "", false
	}
	return rel, true
}

func (r *Recorder) record(name string, op Op) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rel, ok := r.rel(name); ok {
		op.Path = rel
		if op.Kind == Rename {
			op.To, _ = r.rel(op.To)
		}
		r.ops = append(r.ops, op)
	}
}

// OpenFile implements fsutil.FS.
func (r *Recorder) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	f, err := r.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_CREATE|os.O_TRUNC) != 0 {
		r.record(name, Op{Kind: Open, Flag: flag & (os.O_CREATE | os.O_TRUNC)})
	}
	wf := &file{File: f, r: r, name: name}
	r.mu.Lock()
	r.open[wf] = struct{}{}
	r.mu.Unlock()
	return wf, nil
}

// ReadFile implements fsutil.FS.
func (r *Recorder) ReadFile(name string) ([]byte, error) { return r.fs.ReadFile(name) }

// Rename implements fsutil.FS.
func (r *Recorder) Rename(oldpath, newpath string) error {
	if err := r.fs.Rename(oldpath, newpath); err != nil {
		return err
	}
	r.record(oldpath, Op{Kind: Rename, To: newpath})
	r.mu.Lock()
	defer r.mu.Unlock()
	for f := range r.open {
		if f.name == oldpath {
			f.name = newpath
		}
	}
	return nil
}

// Remove implements fsutil.FS.
func (r *Recorder) Remove(name string) error {
	if err := r.fs.Remove(name); err != nil {
		return err
	}
	r.record(name, Op{Kind: Remove})
	return nil
}

// MkdirAll implements fsutil.FS.
func (r *Recorder) MkdirAll(path string, perm os.FileMode) error {
	if err := r.fs.MkdirAll(path, perm); err != nil {
		return err
	}
	r.record(path, Op{Kind: Mkdir})
	return nil
}

// Stat implements fsutil.FS.
func (r *Recorder) Stat(name string) (os.FileInfo, error) { return r.fs.Stat(name) }

// ReadDir implements fsutil.FS.
func (r *Recorder) ReadDir(name string) ([]os.DirEntry, error) { return r.fs.ReadDir(name) }

// SyncDir implements fsutil.FS.
func (r *Recorder) SyncDir(dir string) error {
	if err := r.fs.SyncDir(dir); err != nil {
		return err
	}
	r.record(dir, Op{Kind: SyncDir})
	return nil
}

// file records the writes, syncs and truncations made to one open file.
type file struct {
	fsutil.File
	r    *Recorder
	name string
}

func (f *file) Close() error {
	f.r.mu.Lock()
	delete(f.r.open, f)
	f.r.mu.Unlock()
	return f.File.Close()
}

func (f *file) Write(p []byte) (int, error) {
	f.r.mu.Lock()
	gate := f.r.gate
	if gate != nil && strings.HasPrefix(f.name, f.r.held) {
		select {
		case <-f.r.arrived:
		default:
			close(f.r.arrived)
		}
	} else {
		gate = nil
	}
	f.r.mu.Unlock()
	if gate != nil {
		<-gate
	}
	off, err := f.File.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}
	n, err := f.File.Write(p)
	if n > 0 {
		f.r.record(f.path(), Op{Kind: Write, Off: off, Data: append([]byte(nil), p[:n]...)})
	}
	return n, err
}

func (f *file) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.r.record(f.path(), Op{Kind: Sync})
	return nil
}

func (f *file) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.r.record(f.path(), Op{Kind: Truncate, Off: size})
	return nil
}

// path is the file's name now, renames followed.
func (f *file) path() string {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	return f.name
}

// Log is the operations recorded between Start and Stop.
type Log struct {
	base string
	ops  []Op
}

// build writes into dir (empty or missing) the state a crash after the
// first n operations leaves: the state at Start, then those operations in
// order.
func (l *Log) build(dir string, n int) error {
	if err := copyTree(l.base, dir); err != nil {
		return err
	}
	for _, op := range l.ops[:n] {
		if err := apply(dir, op); err != nil {
			return fmt.Errorf("crashfs: replaying %v: %w", op, err)
		}
	}
	return nil
}

// Prefixes runs check, as a subtest, on the state after every prefix of
// the log, the empty prefix and the whole log included. A prefix that
// ends in a sync leaves the state the prefix before it left and is skipped.
func (l *Log) Prefixes(t *testing.T, check func(t *testing.T, dir string)) {
	for n := 0; n <= len(l.ops); n++ {
		if n > 0 && (l.ops[n-1].Kind == Sync || l.ops[n-1].Kind == SyncDir) {
			continue
		}
		t.Run(fmt.Sprintf("prefix=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := l.build(dir, n); err != nil {
				t.Fatal(err)
			}
			check(t, dir)
		})
	}
}

// CheckSyncOrder fails t unless every write to a file named name is synced
// before any other file named name is written: the order that lets a
// decision in one log rest on a prepared batch in another. It also fails t
// when no such write was recorded.
func (l *Log) CheckSyncOrder(t testing.TB, name string) {
	t.Helper()
	unsynced := map[string]int{} // path -> index of its first unsynced write
	writes := 0
	for i, op := range l.ops {
		if filepath.Base(op.Path) != name {
			continue
		}
		switch op.Kind {
		case Sync:
			delete(unsynced, op.Path)
		case Write:
			writes++
			for p, w := range unsynced {
				if p != op.Path {
					t.Fatalf("op %d (%v) follows op %d (%v), which was never synced", i, op, w, l.ops[w])
				}
			}
			if _, ok := unsynced[op.Path]; !ok {
				unsynced[op.Path] = i
			}
		}
	}
	if writes == 0 {
		t.Fatalf("no write to a %s was recorded", name)
	}
}

// apply replays one operation under dir.
func apply(dir string, op Op) error {
	path := filepath.Join(dir, op.Path)
	switch op.Kind {
	case Open:
		f, err := os.OpenFile(path, os.O_WRONLY|op.Flag, 0o600)
		if err != nil {
			return err
		}
		return f.Close()
	case Write:
		f, err := os.OpenFile(path, os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(op.Data, op.Off); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case Truncate:
		return os.Truncate(path, op.Off)
	case Rename:
		return os.Rename(path, filepath.Join(dir, op.To))
	case Remove:
		return os.Remove(path)
	case Mkdir:
		return os.MkdirAll(path, 0o700)
	}
	return nil // Sync, SyncDir: persistence is in order
}

// copyTree copies the regular files and directories under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o700)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o600)
	})
}
