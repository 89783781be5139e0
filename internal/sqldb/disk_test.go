package sqldb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fsutil"
)

// faultFS is fsutil.OS with injected failures: a file write, rename or
// directory sync ("write", "rename", "syncdir") fails when it is the
// call failOn named, on a path whose base name starts with its prefix.
type faultFS struct {
	fsutil.FS
	mu         sync.Mutex
	op, prefix string
}

var errInjected = errors.New("injected fault")

func newFaultFS() *faultFS { return &faultFS{FS: fsutil.OS} }

// failOn sets the failing call; failOn("", "") clears it.
func (f *faultFS) failOn(op, prefix string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.op, f.prefix = op, prefix
}

func (f *faultFS) check(op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == f.op && strings.HasPrefix(filepath.Base(path), f.prefix) {
		return fmt.Errorf("%s %s: %w", op, path, errInjected)
	}
	return nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *faultFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename", newpath); err != nil {
		return err
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.check("syncdir", dir); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

type faultFile struct {
	fsutil.File
	fs   *faultFS
	name string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.check("write", f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

// diskFormatDigest is the SHA-256 over wal.log, MANIFEST and every page
// segment that diskFormatScript leaves behind (see dirFilesDigest),
// recorded by the version before the file interface and the shared frame
// codec existed. The bytes on disk must never move with a refactor.
const diskFormatDigest = "d8688a350aae62a97f6c7cc938a7c2aed41ba1f94fdd8153df8436d9a6cb2f80"

// diskFormatScript drives a fixed workload through every kind of record the
// durable files hold: DDL with hash and ordered indexes, inserts across a
// page boundary, updates, deletes, a meta blob, a dropped table, a
// checkpoint, and commits after it.
func diskFormatScript(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE users (id INT PRIMARY KEY, name TEXT, score INT, avatar BLOB)")
	mustExec(t, db, "CREATE INDEX users_name ON users (name)")
	mustExec(t, db, "CREATE INDEX users_score ON users (score) USING BTREE")
	mustExec(t, db, "CREATE TABLE scratch (k TEXT, v INT)")
	for i := 0; i < 300; i++ {
		avatar := Null()
		if i%50 == 0 {
			avatar = Blob([]byte{byte(i), 0, 0xff})
		}
		mustExec(t, db, "INSERT INTO users (id, name, score, avatar) VALUES (?, ?, ?, ?)", Int(int64(i)), Text(fmt.Sprintf("user%d", i)), Int(int64(i*7%101)), avatar)
	}
	mustExec(t, db, "INSERT INTO scratch (k, v) VALUES ('a', 1), ('b', 2)")
	mustExec(t, db, "UPDATE users SET score = score + 1000 WHERE id < 40")
	mustExec(t, db, "DELETE FROM users WHERE id >= 100 AND id < 120")
	mustExec(t, db, "DELETE FROM users WHERE id >= 290")
	if _, err := db.ExecWithMeta(mustParse(t, "UPDATE users SET name = 'renamed' WHERE id = 7"), []byte("meta-one")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "DROP TABLE scratch")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO users (id, name, score, avatar) VALUES (1000, 'late', 5, NULL)")
	mustExec(t, db, "UPDATE users SET name = 'later' WHERE id = 3")
	mustExec(t, db, "DELETE FROM users WHERE id = 4")
	if _, err := db.ExecAutonomousListWithMeta(nil, []byte("meta-two")); err != nil {
		t.Fatal(err)
	}
}

// dirFilesDigest hashes the named files of dir and every page segment, by
// name and content, in sorted order.
func dirFilesDigest(t *testing.T, dir string) string {
	t.Helper()
	names := []string{walFileName, manifestName}
	segs, err := filepath.Glob(filepath.Join(dir, pagesDirName, "seg-*.pg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		names = append(names, filepath.Join(pagesDirName, filepath.Base(s)))
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDiskFormatPinned runs diskFormatScript and holds the bytes of the WAL,
// the manifest and the segments to the recorded digest.
func TestDiskFormatPinned(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	diskFormatScript(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dirFilesDigest(t, dir); got != diskFormatDigest {
		t.Fatalf("on-disk bytes changed: digest %s, want %s", got, diskFormatDigest)
	}
}

// dirtyPages returns the ids of a table's dirty pages.
func dirtyPages(db *DB, table string) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var ids []int
	t := db.tables[table]
	for id := range t.pages {
		if p := t.pages[id].Load(); p != nil && p.dirty && !p.flushing {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestCheckpointFailureRecovers fails one step of a checkpoint's write
// phase. The checkpoint must return the error and re-dirty the pages it
// captured. When the failure comes before the manifest rename, the
// previous MANIFEST stays in place byte for byte. Either way the next
// checkpoint succeeds, and a reopen recovers every acked commit.
func TestCheckpointFailureRecovers(t *testing.T) {
	for _, tc := range []struct {
		name, op, prefix string
		manifestKept     bool
	}{
		{"segment write", "write", "seg-", true},
		{"segment dir sync", "syncdir", pagesDirName, true},
		{"manifest rename", "rename", manifestName, true},
		// The data directory's sync ("" below): the rename has happened,
		// so either manifest may survive a crash, and both must find
		// their segments.
		{"manifest dir sync", "syncdir", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := newFaultFS()
			dir := t.TempDir()
			db, err := open(ffs, dir, DurabilityOptions{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
			for i := 0; i < 600; i++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 'v%d')", i, i))
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, "UPDATE t SET v = 'changed' WHERE id = 3 OR id = 300")
			mustExec(t, db, "DELETE FROM t WHERE id = 599")
			mustExec(t, db, "INSERT INTO t (id, v) VALUES (1000, 'new')")
			dirty := dirtyPages(db, "t")
			if !reflect.DeepEqual(dirty, []int{0, 1, 2}) {
				t.Fatalf("dirty pages %v, want [0 1 2]", dirty)
			}

			prefix := tc.prefix
			if prefix == "" {
				prefix = filepath.Base(dir)
			}
			ffs.failOn(tc.op, prefix)
			if err := db.Checkpoint(); !errors.Is(err, errInjected) {
				t.Fatalf("checkpoint with a failing %s: err = %v", tc.name, err)
			}
			ffs.failOn("", "")
			if got := dirtyPages(db, "t"); !reflect.DeepEqual(got, dirty) {
				t.Fatalf("after the failed checkpoint dirty pages are %v, want %v", got, dirty)
			}
			after, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if tc.manifestKept && !bytes.Equal(after, before) {
				t.Fatal("a checkpoint that failed before its rename replaced the MANIFEST")
			}
			mustExec(t, db, "INSERT INTO t (id, v) VALUES (1001, 'after')")
			want := dump(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen straight after the failure, then again after a checkpoint
			// that succeeds.
			for round := 0; round < 2; round++ {
				db, err = Open(dir, DurabilityOptions{CheckpointBytes: -1})
				if err != nil {
					t.Fatalf("reopen %d: %v", round, err)
				}
				if got := dump(t, db); got != want {
					t.Fatalf("reopen %d lost acked commits:\ngot:\n%s\nwant:\n%s", round, got, want)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestWALTruncateRenameFailure fails the rename that installs a checkpoint's
// truncated log. The checkpoint returns the error; the old log stays in
// place, keeps taking commits, and replays on reopen.
func TestWALTruncateRenameFailure(t *testing.T) {
	ffs := newFaultFS()
	dir := t.TempDir()
	db, err := open(ffs, dir, DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 1), (2, 2)")
	ffs.failOn("rename", walFileName)
	if err := db.Checkpoint(); !errors.Is(err, errInjected) {
		t.Fatalf("checkpoint with a failing wal rename: err = %v", err)
	}
	ffs.failOn("", "")
	if _, err := os.Stat(filepath.Join(dir, walFileName+".tmp")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the failed truncation left its temp file: %v", err)
	}
	mustExec(t, db, "UPDATE t SET v = 20 WHERE id = 2")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (3, 3)")
	want := dump(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := dump(t, db); got != want {
		t.Fatalf("replay after a failed truncation:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecoveredFreeList pins the free list a directory recovers from its
// manifest: trailing free slots are dropped, and interior gaps enter the
// free list in ascending order, from whose end inserts draw.
func TestRecoveredFreeList(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY)")
	for i := 0; i < 300; i++ { // slots 0..299, across a page boundary
		mustExec(t, db, fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", i))
	}
	mustExec(t, db, "DELETE FROM t WHERE id = 2 OR id = 5 OR id = 260 OR id >= 297")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl := db.tables["t"]
	if tbl.nslots != 297 || !reflect.DeepEqual(tbl.free, []int{2, 5, 260}) {
		t.Fatalf("recovered %d slots with free list %v, want 297 and [2 5 260]", tbl.nslots, tbl.free)
	}
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", 1000+i))
	}
	slots := map[int64]int{}
	err = tbl.scan(func(slot int, row []Value) error {
		if row[0].I >= 1000 {
			slots[row[0].I] = slot
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int{1000: 260, 1001: 5, 1002: 2, 1003: 297, 1004: 298}
	if !reflect.DeepEqual(slots, want) {
		t.Fatalf("inserts after reopen took slots %v, want %v", slots, want)
	}
}

// dirTree reads every file under dir, by relative path.
func dirTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	tree := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			tree[rel+"/"] = ""
			return nil
		}
		data, err := os.ReadFile(path)
		tree[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOpenRefusesSnapshotLayout: a directory holding a snapshot.db, the
// layout older versions wrote, fails Open with ErrSnapshotLayout and is
// left byte for byte as it was — no LOCK, no pages/, no manifest, and no
// skipped file whose rows would be lost.
func TestOpenRefusesSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	for name, data := range map[string]string{
		snapFileName: "CDBSNP\x00\x01 rows of an older layout",
		walFileName:  string(newWALHeader()),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	before := dirTree(t, dir)
	if db, err := Open(dir, DurabilityOptions{}); !errors.Is(err, ErrSnapshotLayout) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open of a snapshot.db directory: err = %v, want ErrSnapshotLayout", err)
	}
	if after := dirTree(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused Open changed the directory: %v, was %v", after, before)
	}
}
