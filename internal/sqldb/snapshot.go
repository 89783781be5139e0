// The durable-database lifecycle (Open, Close) and the full-state op
// stream (snapshotOps).
//
// A durable directory is always MANIFEST + pages/ + wal.log (see
// ckpt_incremental.go); recovery loads the manifest and replays the WAL
// batches past the sequence number it covers. Open refuses a directory
// that still holds a snapshot.db, the layout older versions wrote.
package sqldb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"repro/internal/fsutil"
)

const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.db"
	lockFileName = "LOCK"

	defaultCheckpointBytes = 4 << 20
)

// ErrSnapshotLayout is returned by Open for a data directory that holds a
// snapshot.db: its rows are in a layout this version does not read, and
// opening without them would lose data silently. The directory is left
// untouched; an older version that still reads the layout converts it.
var ErrSnapshotLayout = errors.New("sqldb: data dir holds a snapshot.db, a layout this version does not read")

// DurabilityOptions configures a durable database opened with Open.
type DurabilityOptions struct {
	// NoFsync skips the fsync after each committed WAL batch. Commits
	// then survive process crashes (the OS still holds the pages) but a
	// machine crash can lose the most recent ones; CRC framing keeps the
	// log consistent either way. The zero value — fsync on every commit —
	// is the safe default.
	NoFsync bool

	// CheckpointBytes is the WAL size that triggers an automatic
	// checkpoint (dirty pages written + log truncation) after a commit. 0
	// uses the default (4 MiB); a negative value disables automatic
	// checkpoints (Checkpoint can still be called explicitly).
	CheckpointBytes int64

	// NoGroupCommit disables WAL group commit: every committer pays its
	// own write+fsync, serialized, as the seed did. Exists for the
	// groupcommit benchmark ablation; leave it off in production.
	NoGroupCommit bool

	// Paged bounds the buffer cache at CacheBytes, so the database can
	// exceed RAM: clean pages beyond the budget are evicted and fault back
	// from their segment files. Without it the cache has no budget and
	// every page stays in memory. The on-disk layout is the same either
	// way. The option exists only because the benchmark sets it; a
	// benchmark change can fold it into CacheBytes > 0.
	Paged bool

	// CacheBytes is the buffer-cache budget in bytes when Paged is set; 0
	// uses the default (64 MiB). Ignored without Paged.
	CacheBytes int64
}

// WALStats reports durability-subsystem activity, for benchmarks and the
// operations figure.
type WALStats struct {
	Batches     int64 // committed batches appended
	Bytes       int64 // framed bytes appended
	Syncs       int64 // fsyncs issued
	Checkpoints int64 // checkpoints installed
}

// Open creates or reopens a durable database rooted at dir. It loads the
// manifest (if one exists), replays committed WAL batches past it — cutting
// off any torn tail left by a crash — and attaches a write-ahead log so
// every subsequent committed write is durable. The directory is created if
// missing and locked (flock) for the lifetime of the database: a second
// Open of the same directory fails rather than letting two writers
// interleave frames in one log. The returned database must be Closed to
// release the log file and the lock. The kernel drops the lock
// automatically when a crashed process dies, so recovery never needs
// manual lock cleanup. A directory holding a snapshot.db fails with
// ErrSnapshotLayout before anything in it is touched.
func Open(dir string, opts DurabilityOptions) (*DB, error) {
	return open(fsutil.OS, dir, opts)
}

// open is Open with every file call made through fsys.
func open(fsys fsutil.FS, dir string, opts DurabilityOptions) (*DB, error) {
	if _, err := fsys.Stat(filepath.Join(dir, snapFileName)); err == nil {
		return nil, fmt.Errorf("%w (%s)", ErrSnapshotLayout, dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sqldb: probing data dir: %w", err)
	}
	if err := fsys.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("sqldb: creating data dir: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.release()
		}
	}()
	pagesDir := filepath.Join(dir, pagesDirName)
	if err := fsys.MkdirAll(pagesDir, 0o700); err != nil {
		return nil, fmt.Errorf("sqldb: creating pages dir: %w", err)
	}
	budget := int64(unbounded)
	if opts.Paged {
		budget = opts.CacheBytes
		if budget <= 0 {
			budget = defaultCacheBytes
		}
	}
	db := newDB(newPager(fsys, pagesDir, budget))
	db.fs = fsys
	db.dir = dir
	db.dopts = opts
	db.lock = lock

	manPath := filepath.Join(dir, manifestName)
	_, manErr := fsys.Stat(manPath)
	hasManifest := manErr == nil
	if hasManifest {
		if db.snapSeq, err = db.loadPaged(manPath); err != nil {
			return nil, err
		}
	}
	db.walSeq = db.snapSeq

	walPath := filepath.Join(dir, walFileName)
	var wal fsutil.File
	end := int64(walHeaderLen)
	if _, err := fsys.Stat(walPath); err == nil {
		var batches []walBatch
		if batches, end, err = readWAL(fsys, walPath, db.snapSeq); err != nil {
			return nil, err
		}
		for _, b := range batches {
			for _, op := range b.ops {
				if err := db.recoverOp(op); err != nil {
					return nil, fmt.Errorf("sqldb: wal replay (batch %d): %w", b.seq, err)
				}
			}
			db.walSeq = max(db.walSeq, b.seq)
		}
		// Cut the torn tail and reopen for append.
		if wal, err = fsys.OpenFile(walPath, os.O_RDWR, 0o600); err != nil {
			return nil, fmt.Errorf("sqldb: reopening wal: %w", err)
		}
		if err := wal.Truncate(end); err != nil {
			wal.Close()
			return nil, fmt.Errorf("sqldb: truncating torn wal tail: %w", err)
		}
		if _, err := wal.Seek(end, 0); err != nil {
			wal.Close()
			return nil, err
		}
	} else if wal, err = fsutil.Install(fsys, walPath, newWALHeader(), !opts.NoFsync); err != nil {
		return nil, fmt.Errorf("sqldb: creating wal: %w", err)
	}
	db.wal = newWALWriter(fsys, wal, walPath, end, !opts.NoFsync, opts.NoGroupCommit)
	if !hasManifest {
		// A fresh directory: write its first manifest.
		if err := db.checkpointHeld(); err != nil {
			return nil, err
		}
	}
	// Replay may have materialized past a budget.
	db.pager.evictToBudget()
	db.startCheckpointLoop()
	ok = true
	return db, nil
}

// Close flushes and closes the write-ahead log and releases the data
// directory lock. The database must not be written afterwards: further
// write statements return an error. Close is a no-op on an in-memory
// database.
func (db *DB) Close() error {
	// Stop the background checkpointer first, before taking db.mu: an
	// in-flight checkpoint holds (or is about to take) the lock, and
	// stopping waits for it to finish.
	db.stopCheckpointLoop()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	// Shutdown quiesce: db.mu is held across the WAL's final flush+fsync on
	// purpose — no statement may slip in between the last flushed batch and
	// the writer tearing down.
	//cryptdb:vet-ok lockorder: Close quiesces the database; holding db.mu across the final fsync is the point
	err := db.wal.close()
	if db.lock != nil {
		db.lock.release()
		db.lock = nil
	}
	return err
}

// dirLock is an advisory exclusive lock (flock) on a data directory.
type dirLock struct{ f *os.File }

// acquireDirLock opens the LOCK file with os directly, not through
// fsutil: the flock needs its descriptor, and the file carries no data.
func acquireDirLock(path string) (*dirLock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("sqldb: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("sqldb: data dir is locked by another instance (%s): %w", path, err)
	}
	return &dirLock{f: f}, nil
}

func (l *dirLock) release() {
	syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN) //nolint:errcheck // closing drops it regardless
	//cryptdb:vet-ok durabilityerr: lock file carries no data; the kernel drops the flock on close either way
	l.f.Close()
}

// maybeAutoCheckpoint kicks the background checkpointer when the WAL has
// outgrown the configured threshold. Called after a commit; the cheap size
// probe is the only work left on the commit path — the segment writing
// happens on the checkpoint goroutine, so no committer ever pays
// for it in-line.
func (db *DB) maybeAutoCheckpoint() {
	if db.wal == nil || db.dopts.CheckpointBytes < 0 {
		return
	}
	limit := db.dopts.CheckpointBytes
	if limit == 0 {
		limit = defaultCheckpointBytes
	}
	if db.wal.size.Load() < limit {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default: // one is already pending
	}
}

// snapshotOps serializes the whole database — schema, indexes, rows (with
// their slots), the committed meta blob and the prepared parts awaiting
// their outcome — as one self-contained WAL-op
// stream, in a deterministic order: the stream shipped to a catching-up
// follower (TapWithSnapshot), and the input of StateDigest. Callers hold
// db.mu (either side).
func (db *DB) snapshotOps() ([]byte, error) {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)

	var ops []byte
	for _, name := range names {
		t := db.tables[name]
		ops = appendTableSchemaOps(ops, name, t)
		// Rows keep their slots: WAL records appended after this snapshot
		// address rows by slot, so the snapshot must preserve them.
		err := t.scan(func(slot int, row []Value) error {
			ops = appendInsertOp(ops, name, slot, row)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if db.meta != nil {
		ops = appendMetaOp(ops, db.meta)
	}
	return db.appendHeldOps(ops, false), nil
}

// appendTableSchemaOps emits the ops that recreate one table's schema and
// indexes (no rows), in a deterministic order.
func appendTableSchemaOps(ops []byte, name string, t *Table) []byte {
	cols := make([]walColDef, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = walColDef{name: c.Name, typ: c.Type, primary: c.Primary}
	}
	ops = appendCreateTableOp(ops, name, cols)
	// Indexes: primaries were folded into plain unique hash indexes
	// at creation, so re-emitting explicit index ops reproduces them.
	idxCols := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		idxCols = append(idxCols, c)
	}
	sort.Strings(idxCols)
	for _, c := range idxCols {
		ops = appendCreateIndexOp(ops, name, c, t.indexes[c].unique, false)
	}
	ordCols := make([]string, 0, len(t.ordIndexes))
	for c := range t.ordIndexes {
		ordCols = append(ordCols, c)
	}
	sort.Strings(ordCols)
	for _, c := range ordCols {
		ops = appendCreateIndexOp(ops, name, c, false, true)
	}
	return ops
}

// schemaOps serializes every table's schema plus the committed meta blob,
// the prepared parts and the decisions held — the row-free counterpart of
// snapshotOps, embedded in the manifest (rows live in page segments).
// Callers hold db.mu (either side).
func (db *DB) schemaOps() []byte {
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var ops []byte
	for _, name := range names {
		ops = appendTableSchemaOps(ops, name, db.tables[name])
	}
	if db.meta != nil {
		ops = appendMetaOp(ops, db.meta)
	}
	return db.appendHeldOps(ops, true)
}
