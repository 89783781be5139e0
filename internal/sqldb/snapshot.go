// The durable-database lifecycle (Open, Close), the full-state op stream
// (snapshotOps) and the reader for the snapshot.db layout older versions
// wrote.
//
// A durable directory is always MANIFEST + pages/ + wal.log (see
// ckpt_incremental.go); recovery loads the manifest and replays the WAL
// batches past the sequence number it covers. A directory that still holds
// a snapshot.db — a self-contained WAL-op stream with the sequence number
// it covers in its header — is converted the first time it is opened: the
// snapshot loads, the WAL tail replays on top, a checkpoint writes the
// first manifest, and the snapshot is deleted.
package sqldb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"

	"repro/internal/fsutil"
)

const (
	snapMagic     = "CDBSNP\x00\x01"
	snapVersion   = 1
	snapHeaderLen = 24 // magic[8] version[4] reserved[4] seq[8]

	walFileName  = "wal.log"
	snapFileName = "snapshot.db"
	lockFileName = "LOCK"

	defaultCheckpointBytes = 4 << 20
)

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

// WALStats returns a snapshot of the durability counters (zero for a pure
// in-memory database).
func (db *DB) WALStats() WALStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return WALStats{}
	}
	return WALStats{
		Batches:     atomic.LoadInt64(&db.wal.batches),
		Bytes:       atomic.LoadInt64(&db.wal.bytes),
		Syncs:       atomic.LoadInt64(&db.wal.syncs),
		Checkpoints: db.checkpoints,
	}
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
// manual lock cleanup.
func Open(dir string, opts DurabilityOptions) (*DB, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
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
	if err := os.MkdirAll(pagesDir, 0o700); err != nil {
		return nil, fmt.Errorf("sqldb: creating pages dir: %w", err)
	}
	budget := int64(unbounded)
	if opts.Paged {
		budget = opts.CacheBytes
		if budget <= 0 {
			budget = defaultCacheBytes
		}
	}
	db := newDB(newPager(pagesDir, budget))
	db.dir = dir
	db.dopts = opts
	db.lock = lock

	manPath := filepath.Join(dir, manifestName)
	snapPath := filepath.Join(dir, snapFileName)
	_, manErr := os.Stat(manPath)
	hasManifest := manErr == nil
	var snapSeq uint64
	if hasManifest {
		snapSeq, err = db.loadPaged(manPath)
	} else {
		// An empty directory, or one in the snapshot.db layout: either way
		// the checkpoint below writes the first manifest.
		snapSeq, err = db.loadSnapshot(snapPath)
	}
	if err != nil {
		return nil, err
	}
	db.walSeq = snapSeq
	db.snapSeq = snapSeq

	walPath := filepath.Join(dir, walFileName)
	if _, err := os.Stat(walPath); err == nil {
		batches, goodOffset, err := readWAL(walPath)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			if b.seq <= snapSeq {
				continue // already in the manifest
			}
			for _, op := range b.ops {
				if err := db.applyOp(op); err != nil {
					return nil, fmt.Errorf("sqldb: wal replay (batch %d): %w", b.seq, err)
				}
			}
			if b.seq > db.walSeq {
				db.walSeq = b.seq
			}
		}
		// Cut the torn tail and reopen for append.
		f, err := os.OpenFile(walPath, os.O_RDWR, 0o600)
		if err != nil {
			return nil, fmt.Errorf("sqldb: reopening wal: %w", err)
		}
		if err := f.Truncate(goodOffset); err != nil {
			f.Close()
			return nil, fmt.Errorf("sqldb: truncating torn wal tail: %w", err)
		}
		if _, err := f.Seek(goodOffset, 0); err != nil {
			f.Close()
			return nil, err
		}
		db.wal = newWALWriter(f, walPath, goodOffset, !opts.NoFsync, opts.NoGroupCommit)
	} else {
		w, err := createWAL(walPath, !opts.NoFsync, opts.NoGroupCommit)
		if err != nil {
			return nil, err
		}
		db.wal = w
	}
	if !hasManifest {
		if err := db.checkpointHeld(); err != nil {
			return nil, err
		}
	}
	// With a manifest durable, a snapshot.db is redundant: either just
	// converted, or left by a conversion that crashed before deleting it.
	if err := os.Remove(snapPath); err == nil && !opts.NoFsync {
		if err := fsutil.SyncDir(dir); err != nil {
			return nil, err
		}
	}
	// Replay (and a conversion) may have materialized past a budget.
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
	if atomic.LoadInt64(&db.wal.size) < limit {
		return
	}
	select {
	case db.ckptKick <- struct{}{}:
	default: // one is already pending
	}
}

// snapshotOps serializes the whole database — schema, indexes, rows (with
// their slots), and the committed meta blob — as one self-contained WAL-op
// stream, in a deterministic order: the stream shipped to a catching-up
// follower (TapWithSnapshot), and the input of StateDigest. Callers hold
// db.mu (either side).
func (db *DB) snapshotOps() []byte {
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
		t.scan(func(slot int, row []Value) bool {
			ops = appendInsertOp(ops, name, slot, row)
			return true
		})
	}
	if db.meta != nil {
		ops = appendMetaOp(ops, db.meta)
	}
	return ops
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

// schemaOps serializes every table's schema plus the committed meta blob —
// the row-free counterpart of snapshotOps, embedded in the manifest (rows
// live in page segments). Callers hold db.mu (either side).
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
	return ops
}

// loadSnapshot rebuilds state from a snapshot.db file written by an older
// version, returning the WAL sequence number it covers (0 when no snapshot
// exists). Unlike a torn WAL tail, a damaged snapshot is fatal: it was
// written atomically, so damage means real corruption, and silently
// starting empty would discard data.
func (db *DB) loadSnapshot(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if len(data) < snapHeaderLen+frameHdrLen || string(data[:8]) != snapMagic {
		return 0, fmt.Errorf("sqldb: %s is not a snapshot file", path)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != snapVersion {
		return 0, fmt.Errorf("sqldb: snapshot version %d not supported", v)
	}
	seq := binary.BigEndian.Uint64(data[16:24])
	rest := data[snapHeaderLen:]
	plen := binary.BigEndian.Uint32(rest)
	if int(plen) > len(rest)-frameHdrLen {
		return 0, fmt.Errorf("sqldb: snapshot %s is truncated", path)
	}
	payload := rest[frameHdrLen : frameHdrLen+int(plen)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
		return 0, fmt.Errorf("sqldb: snapshot %s is corrupt (bad checksum)", path)
	}
	d := &walDecoder{buf: payload[8:]}
	for !d.done() {
		op, err := d.op()
		if err != nil {
			return 0, fmt.Errorf("sqldb: snapshot decode: %w", err)
		}
		if err := db.applyOp(op); err != nil {
			return 0, fmt.Errorf("sqldb: snapshot load: %w", err)
		}
	}
	return seq, nil
}
