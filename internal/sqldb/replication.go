// Replication substrate: the hooks internal/repl builds async primary →
// follower WAL shipping on. The WAL is already everything a replica needs —
// CRC-framed, sequence-numbered physical redo, with the proxy's sealed
// metadata riding the same frames — so replication at this layer is four
// primitives:
//
//   - TapWAL(fromSeq): subscribe to committed frames. The returned LogTap
//     first yields the frames already on disk past fromSeq, then every
//     cohort as its fsync completes, in file (= sequence = dependency)
//     order. Fails with ErrSeqTruncated when a checkpoint has discarded
//     frames the caller still needs.
//   - TapWithSnapshot(): the catch-up path — a full-state op stream (the
//     same encoding snapshots use) plus a tap registered at the exact
//     sequence number the snapshot covers, atomically.
//   - ApplyReplicatedFrame(frame): the follower's replay entry. Re-verifies
//     the CRC, decodes the whole frame, applies it as one atomic unit under
//     the database lock through the same applyOp used by crash recovery,
//     and appends the batch to the follower's own WAL so a restarted
//     follower resumes from its local log.
//   - ResetFromSnapshot(ops, seq): replace the entire database state with a
//     primary-supplied snapshot stream (all-or-nothing), then checkpoint so
//     the local disk state matches.
//
// A frame is the unit of both atomicity and delivery: a follower that
// loses its connection mid-frame simply discards the partial bytes — no
// half-applied cohort is possible because nothing is applied until a frame
// has arrived whole and its CRC checks out.
package sqldb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
)

var (
	// ErrSeqTruncated reports that the frames after the requested sequence
	// number are no longer in the log (a checkpoint folded them into the
	// page segments). The caller must fall back to a full snapshot resync.
	ErrSeqTruncated = errors.New("sqldb: requested WAL sequence has been checkpointed away")
	// ErrTapLagged reports that a tap's subscriber fell so far behind that
	// its buffer overflowed; the tap is dead and the subscriber must
	// re-establish (possibly via snapshot).
	ErrTapLagged = errors.New("sqldb: wal tap lagged behind the commit stream")
	// ErrTapClosed reports that the tap was closed.
	ErrTapClosed = errors.New("sqldb: wal tap closed")
)

// tapBufferLimit bounds how many undelivered frame bytes a tap may hold
// before it is declared lagged — backpressure that protects the primary's
// memory from a stalled follower.
const tapBufferLimit = 64 << 20

// LogTap is a subscription to a database's committed WAL frames. Frames
// arrive exactly once each, in sequence order, only after their cohort's
// write+fsync succeeded — an un-durable commit is never shipped.
type LogTap struct {
	w *walWriter

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // pending frames, concatenated in sequence order
	floor  uint64 // frames with seq <= floor are not for this tap
	lagged bool
	closed bool
	limit  int
}

func newLogTap(w *walWriter, floor uint64) *LogTap {
	t := &LogTap{w: w, floor: floor, limit: tapBufferLimit}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// deliver appends a blob of flushed frames, filtering out any at or below
// the tap's floor (frames the subscriber already has from the file read or
// the snapshot). Called by the WAL writer under w.mu after a successful
// flush; tap.mu nests inside w.mu.
func (t *LogTap) deliver(frames []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.lagged {
		return
	}
	keep := frames
	// Frames within a cohort are in ascending sequence order, so filtering
	// is a prefix cut: skip leading frames at or below the floor.
	for len(keep) >= frameHdrLen+8 {
		plen := binary.BigEndian.Uint32(keep)
		seq := binary.BigEndian.Uint64(keep[frameHdrLen:])
		if seq > t.floor {
			break
		}
		keep = keep[frameHdrLen+int(plen):]
	}
	if len(keep) == 0 {
		return
	}
	if len(t.buf)+len(keep) > t.limit {
		t.lagged = true
		t.buf = nil
		t.cond.Broadcast()
		return
	}
	t.buf = append(t.buf, keep...)
	t.cond.Broadcast()
}

// invalidate marks the tap lagged (used when a checkpoint cured a poisoned
// writer or the state was replaced wholesale — the tap may have a gap).
func (t *LogTap) invalidate() {
	t.mu.Lock()
	t.lagged = true
	t.buf = nil
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Frames blocks until at least one committed frame is pending, then
// returns the pending frames (concatenated, sequence order) and resets the
// buffer. Returns ErrTapClosed after Close and ErrTapLagged if the
// subscriber fell behind the backpressure limit.
func (t *LogTap) Frames() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.buf) == 0 && !t.closed && !t.lagged {
		t.cond.Wait()
	}
	if t.lagged {
		return nil, ErrTapLagged
	}
	if t.closed && len(t.buf) == 0 {
		return nil, ErrTapClosed
	}
	b := t.buf
	t.buf = nil
	return b, nil
}

// Close unsubscribes the tap and wakes any blocked Frames call.
func (t *LogTap) Close() {
	t.w.removeTap(t)
	t.mu.Lock()
	t.closed = true
	t.cond.Broadcast()
	t.mu.Unlock()
}

// Seq returns the database's last committed WAL sequence number.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walSeq
}

// MetaVersion counts committed application-metadata transitions (including
// those replayed from the WAL or a replicated stream). A follower-side
// proxy polls it cheaply to decide when to re-load its sealed metadata.
func (db *DB) MetaVersion() uint64 { return atomic.LoadUint64(&db.metaVer) }

// TapWAL subscribes to committed WAL frames with sequence numbers greater
// than fromSeq. The returned tap first yields every such frame already in
// the log, then streams each subsequent cohort as it becomes durable.
// Fails with ErrSeqTruncated when frames past fromSeq are no longer in the
// log (checkpointed away, or fromSeq is ahead of this database — a
// diverged caller); the caller should fall back to TapWithSnapshot.
func (db *DB) TapWAL(fromSeq uint64) (*LogTap, error) {
	// The read lock freezes walSeq and excludes new enqueues (committers
	// stage under the write lock), so after draining the writer the file
	// holds exactly the frames in (snapSeq, walSeq] and nothing can flush
	// concurrently with the file read below.
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return nil, fmt.Errorf("sqldb: cannot tap an in-memory database")
	}
	if fromSeq < db.snapSeq || fromSeq > db.walSeq {
		return nil, ErrSeqTruncated
	}
	w := db.wal
	w.mu.Lock()
	w.drainLocked() //cryptdb:vet-ok lockorder: holding db.mu across the drain IS the tap protocol — it pins walSeq while the file is completed and the tap registered, so backfill+live delivery is gap-free
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return nil, fmt.Errorf("sqldb: wal tap: writer failed: %w", err)
	}
	tap := newLogTap(w, db.walSeq)
	w.taps = append(w.taps, tap)
	w.mu.Unlock()

	backlog, err := readFrames(w.path, fromSeq)
	if err != nil {
		tap.Close()
		return nil, err
	}
	tap.mu.Lock()
	tap.buf = append(backlog, tap.buf...)
	tap.mu.Unlock()
	return tap, nil
}

// TapWithSnapshot returns a self-contained op stream rebuilding the entire
// current state (the snapshot encoding), the WAL sequence number it
// covers, and a tap that yields every frame committed after it — all
// consistent with one another. This is the catch-up path for a follower
// whose requested sequence has been checkpointed away.
func (db *DB) TapWithSnapshot() (ops []byte, seq uint64, tap *LogTap, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	defer catchPageFault(&err)
	if db.wal == nil {
		return nil, 0, nil, fmt.Errorf("sqldb: cannot tap an in-memory database")
	}
	ops = db.snapshotOps()
	seq = db.walSeq
	w := db.wal
	w.mu.Lock()
	tap = newLogTap(w, seq)
	w.taps = append(w.taps, tap)
	w.mu.Unlock()
	return ops, seq, tap, nil
}

// readFrames scans a WAL file and returns the raw bytes of every intact
// frame with sequence number greater than fromSeq, stopping (like
// recovery) at the first damaged frame.
func readFrames(path string, fromSeq uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		return nil, fmt.Errorf("sqldb: %s is not a wal file", path)
	}
	var out []byte
	off := walHeaderLen
	for {
		rest := data[off:]
		if len(rest) < frameHdrLen {
			return out, nil
		}
		plen := binary.BigEndian.Uint32(rest)
		if plen < 8 || plen > maxFrameLen || int(plen) > len(rest)-frameHdrLen {
			return out, nil
		}
		payload := rest[frameHdrLen : frameHdrLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
			return out, nil
		}
		if binary.BigEndian.Uint64(payload) > fromSeq {
			out = append(out, rest[:frameHdrLen+int(plen)]...)
		}
		off += frameHdrLen + int(plen)
	}
}

// SplitFrames cuts a blob of concatenated frames (as yielded by a LogTap)
// into individual frames without verifying CRCs. Errors on malformed
// lengths; the per-frame CRC check happens in ApplyReplicatedFrame.
func SplitFrames(blob []byte) ([][]byte, error) {
	var frames [][]byte
	for len(blob) > 0 {
		if len(blob) < frameHdrLen {
			return nil, fmt.Errorf("sqldb: truncated frame header (%d bytes)", len(blob))
		}
		plen := binary.BigEndian.Uint32(blob)
		if plen < 8 || plen > maxFrameLen || int(plen) > len(blob)-frameHdrLen {
			return nil, fmt.Errorf("sqldb: frame length %d exceeds blob", plen)
		}
		frames = append(frames, blob[:frameHdrLen+int(plen)])
		blob = blob[frameHdrLen+int(plen):]
	}
	return frames, nil
}

// FrameSeq returns the sequence number of one framed batch.
func FrameSeq(frame []byte) (uint64, error) {
	if len(frame) < frameHdrLen+8 {
		return 0, fmt.Errorf("sqldb: frame too short (%d bytes)", len(frame))
	}
	return binary.BigEndian.Uint64(frame[frameHdrLen:]), nil
}

// ApplyReplicatedFrame replays one shipped WAL frame on a follower. The
// frame's CRC is re-verified (the network hop gets no more trust than the
// disk) and the whole batch is decoded before anything applies, so a
// corrupt or truncated frame leaves the database untouched. Frames at or
// below the current sequence are skipped (idempotent redelivery); frames
// above it apply atomically under the database lock and are appended to
// the follower's own WAL so the replica is itself durable and restartable
// through the ordinary recovery path. Sequence gaps are tolerated — the
// primary's stream is the order authority.
func (db *DB) ApplyReplicatedFrame(frame []byte) error {
	if len(frame) < frameHdrLen+8 {
		return fmt.Errorf("sqldb: replicated frame too short (%d bytes)", len(frame))
	}
	plen := binary.BigEndian.Uint32(frame)
	if plen < 8 || int(plen) != len(frame)-frameHdrLen {
		return fmt.Errorf("sqldb: replicated frame length mismatch (%d vs %d)", plen, len(frame)-frameHdrLen)
	}
	payload := frame[frameHdrLen:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[4:]) {
		return fmt.Errorf("sqldb: replicated frame failed CRC check")
	}
	seq := binary.BigEndian.Uint64(payload)
	// Decode everything up front: an undecodable op must not half-apply.
	var ops []walOp
	d := &walDecoder{buf: payload[8:]}
	for !d.done() {
		op, err := d.op()
		if err != nil {
			return fmt.Errorf("sqldb: replicated frame decode: %w", err)
		}
		ops = append(ops, op)
	}

	if db.wal != nil {
		db.wal.announce()
		defer db.wal.retire()
	}
	db.mu.Lock()
	if seq <= db.walSeq {
		db.mu.Unlock()
		return nil // already applied (redelivery after a reconnect)
	}
	applyErr := func() (err error) {
		// Applying to a paged follower can fault pages in; the panic must
		// not escape with db.mu held.
		defer catchPageFault(&err)
		for i, op := range ops {
			if err := db.applyOp(op); err != nil {
				// A mid-batch apply failure means the follower's state has
				// diverged from the primary's; the caller must full-resync.
				return fmt.Errorf("sqldb: replicated frame %d apply (op %d): %w", seq, i, err)
			}
		}
		return nil
	}()
	if applyErr != nil {
		db.mu.Unlock()
		return applyErr
	}
	db.walSeq = seq
	var cohort *walCohort
	if db.wal != nil {
		cohort = db.wal.enqueue(seq, payload[8:])
	}
	db.mu.Unlock()

	if cohort != nil {
		if err := db.wal.waitFlush(cohort); err != nil {
			return &DurabilityError{Err: err}
		}
		db.maybeAutoCheckpoint()
		db.cachePressure()
	}
	return nil
}

// ResetFromSnapshot replaces the entire database state with a
// primary-supplied snapshot op stream covering sequence seq. The stream is
// decoded and applied into scratch state first, then swapped in under the
// database lock — a malformed stream leaves the database untouched. On a
// durable database the new state is checkpointed immediately so the local
// disk agrees with memory. Fails while any transaction is open.
func (db *DB) ResetFromSnapshot(ops []byte, seq uint64) error {
	scratch := New()
	d := &walDecoder{buf: ops}
	for !d.done() {
		op, err := d.op()
		if err != nil {
			return fmt.Errorf("sqldb: snapshot stream decode: %w", err)
		}
		if err := scratch.applyOp(op); err != nil {
			return fmt.Errorf("sqldb: snapshot stream apply: %w", err)
		}
	}

	// The checkpoint below runs with db.mu held; take the single-flight lock
	// first (ckptMu before db.mu, always) so a concurrent background
	// checkpoint cannot interleave.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(db.openTxns) > 0 {
		return fmt.Errorf("sqldb: cannot reset state with %d open transactions", len(db.openTxns))
	}
	// Swap the cache's accounting over to the staged tables: uncharge the
	// old state, adopt the new (fully resident, all dirty).
	for _, t := range db.tables {
		db.pager.forgetTable(t)
	}
	for _, t := range scratch.tables {
		db.adoptStagedTable(t)
	}
	db.tables = scratch.tables
	db.meta = scratch.meta
	atomic.AddUint64(&db.metaVer, 1)
	db.walSeq = seq
	db.snapSeq = seq
	if db.wal == nil {
		return nil
	}
	// The local log no longer describes the in-memory state; persist the
	// new state and truncate. Any taps on this database may now have a gap,
	// so they are invalidated (a chained subscriber must resync).
	db.wal.invalidateTaps()
	//cryptdb:vet-ok lockorder: a snapshot reset installs a frozen state; db.mu must span segment write + manifest install
	if err := db.checkpointHeld(); err != nil {
		return &DurabilityError{Err: err}
	}
	db.pager.evictToBudget()
	return nil
}

// StateDigest returns a deterministic digest of the full logical state —
// schema, indexes, rows (by slot), and the committed metadata blob. Two
// databases with equal digests hold byte-identical state; replication
// tests use it as their equivalence oracle.
func (db *DB) StateDigest() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	// Digesting scans every row, faulting evicted pages through the cache;
	// an I/O failure surfaces as a panic from the accessors and is allowed
	// to propagate (digests back oracles and tests, which want loud failure).
	sum := sha256.Sum256(db.snapshotOps())
	return hex.EncodeToString(sum[:])
}
