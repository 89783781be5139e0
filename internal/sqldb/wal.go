// Write-ahead logging for the embedded DBMS. The WAL makes committed
// writes durable: every autocommit statement (and every BEGIN..COMMIT
// transaction) appends one CRC-framed batch of physical redo records, and
// Open replays committed batches to reconstruct the exact in-memory state.
// CryptDB's security story depends on this — the proxy's onion-layer
// decisions are only meaningful if the ciphertexts they describe survive a
// restart — so the WAL also carries opaque "meta" records the proxy uses to
// commit its own metadata atomically with the server-side writes that
// change it (see ExecWithMeta).
//
// On-disk layout (everything little-endian-free: lengths and integers are
// big-endian or varint):
//
//	file   := header frame*
//	header := magic[8] version[4] reserved[4]
//	frame  := payloadLen[4] crc32(payload)[4] payload
//	payload:= seq[8] op*
//
// Page segments and the manifest are one frame each behind their own
// header; appendFrame and readFrame are the frame's only codec. A frame
// is the unit of atomicity: a crash can only ever truncate the file inside
// the last frame, and replay stops at the first frame whose length or CRC
// does not check out, discarding the torn tail. Batch sequence numbers are
// strictly increasing; replay skips batches already covered by the
// manifest (see ckpt_incremental.go). Every file call goes through
// fsutil.FS.
package sqldb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
	"repro/internal/sqlparser"
)

// WAL op kinds. Ops are physical: they record slots and cell values, not
// SQL, so replay is deterministic regardless of UDFs, randomness or
// planner decisions during the original execution.
const (
	walOpInsert      = 1  // table, slot, row values
	walOpDelete      = 2  // table, slot
	walOpUpdate      = 3  // table, slot, pos, new value
	walOpCreateTable = 4  // table, column defs (name, type, primary)
	walOpCreateIndex = 5  // table, column, unique flag, kind (hash/ordered)
	walOpDropTable   = 6  // table
	walOpMeta        = 7  // opaque application metadata blob
	walOpPrepare     = 8  // id, one part of a write that spans databases: its redo ops, held unapplied
	walOpDecide      = 9  // id: this batch commits the write whose other parts were prepared under id
	walOpResolve     = 10 // id, outcome: publish (commit) or drop the part prepared under id
)

const (
	walMagic     = "CDBWAL\x00\x01"
	walVersion   = 1
	walHeaderLen = 16
	frameHdrLen  = 8
	// maxFrameLen rejects absurd lengths when scanning a (possibly
	// corrupt) log, bounding allocation.
	maxFrameLen = 1 << 30
)

// walOp is one decoded redo record.
type walOp struct {
	kind    byte
	table   string
	slot    int
	pos     int
	row     []Value
	val     Value
	cols    []walColDef
	column  string
	unique  bool
	ordered bool
	meta    []byte
	id      uint64 // prepare, decide, resolve: the id of the write that spans databases
	part    []byte // prepare: the part's encoded redo ops
	commit  bool   // resolve: publish, not drop
}

type walColDef struct {
	name    string
	typ     sqlparser.ColType
	primary bool
}

//
// Encoding
//

func appendUvarint(buf []byte, u uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], u)
	return append(buf, tmp[:n]...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I))
		buf = append(buf, b[:]...)
	case KindText:
		buf = appendString(buf, v.S)
	case KindBlob:
		buf = appendUvarint(buf, uint64(len(v.B)))
		buf = append(buf, v.B...)
	}
	return buf
}

func appendInsertOp(buf []byte, table string, slot int, row []Value) []byte {
	buf = append(buf, walOpInsert)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(slot))
	buf = appendUvarint(buf, uint64(len(row)))
	for _, v := range row {
		buf = appendValue(buf, v)
	}
	return buf
}

func appendDeleteOp(buf []byte, table string, slot int) []byte {
	buf = append(buf, walOpDelete)
	buf = appendString(buf, table)
	return appendUvarint(buf, uint64(slot))
}

func appendUpdateOp(buf []byte, table string, slot, pos int, v Value) []byte {
	buf = append(buf, walOpUpdate)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(slot))
	buf = appendUvarint(buf, uint64(pos))
	return appendValue(buf, v)
}

func appendCreateTableOp(buf []byte, table string, cols []walColDef) []byte {
	buf = append(buf, walOpCreateTable)
	buf = appendString(buf, table)
	buf = appendUvarint(buf, uint64(len(cols)))
	for _, c := range cols {
		buf = appendString(buf, c.name)
		buf = append(buf, byte(c.typ))
		if c.primary {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func appendCreateIndexOp(buf []byte, table, column string, unique, ordered bool) []byte {
	buf = append(buf, walOpCreateIndex)
	buf = appendString(buf, table)
	buf = appendString(buf, column)
	flags := byte(0)
	if unique {
		flags |= 1
	}
	if ordered {
		flags |= 2
	}
	return append(buf, flags)
}

func appendDropTableOp(buf []byte, table string) []byte {
	buf = append(buf, walOpDropTable)
	return appendString(buf, table)
}

func appendMetaOp(buf []byte, meta []byte) []byte {
	buf = append(buf, walOpMeta)
	buf = appendUvarint(buf, uint64(len(meta)))
	return append(buf, meta...)
}

func appendPrepareOp(buf []byte, id uint64, part []byte) []byte {
	buf = append(buf, walOpPrepare)
	buf = appendUvarint(buf, id)
	buf = appendUvarint(buf, uint64(len(part)))
	return append(buf, part...)
}

func appendDecideOp(buf []byte, id uint64) []byte {
	return appendUvarint(append(buf, walOpDecide), id)
}

func appendResolveOp(buf []byte, id uint64, commit bool) []byte {
	buf = appendUvarint(append(buf, walOpResolve), id)
	if commit {
		return append(buf, 1)
	}
	return append(buf, 0)
}

//
// Decoding
//

type walDecoder struct {
	buf  []byte
	off  int
	part bool // decoding a prepared part's ops: row and DDL ops only
}

func (d *walDecoder) done() bool { return d.off >= len(d.buf) }

func (d *walDecoder) byte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *walDecoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	d.off += n
	return u, nil
}

// count reads an element count and rejects one the bytes left could not
// hold at minSize bytes an element, so a corrupt count (CRCs only catch
// damage, not a writer's lies) cannot make the decoder allocate more than
// its input.
func (d *walDecoder) count(minSize int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if left := len(d.buf) - d.off; n > uint64(left/minSize) {
		return 0, fmt.Errorf("sqldb: decode: count %d exceeds the %d bytes left", n, left)
	}
	return int(n), nil
}

// maxSlot bounds every decoded slot, page id and cell position: a larger
// one is corruption, and would wrap negative as an int.
const maxSlot = 1<<31 - 1

// index reads a slot, page id or cell position no larger than max.
func (d *walDecoder) index(max int) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(max) {
		return 0, fmt.Errorf("sqldb: decode: index %d out of range", n)
	}
	return int(n), nil
}

func (d *walDecoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *walDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	return string(b), err
}

func (d *walDecoder) value() (Value, error) {
	k, err := d.byte()
	if err != nil {
		return Value{}, err
	}
	switch Kind(k) {
	case KindNull:
		return Null(), nil
	case KindInt:
		b, err := d.bytes(8)
		if err != nil {
			return Value{}, err
		}
		return Int(int64(binary.BigEndian.Uint64(b))), nil
	case KindText:
		s, err := d.string()
		return Text(s), err
	case KindBlob:
		n, err := d.uvarint()
		if err != nil {
			return Value{}, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return Value{}, err
		}
		return Blob(append([]byte(nil), b...)), nil
	}
	return Value{}, fmt.Errorf("sqldb: wal: unknown value kind %d", k)
}

func (d *walDecoder) op() (walOp, error) {
	kind, err := d.byte()
	if err != nil {
		return walOp{}, err
	}
	if d.part && kind >= walOpMeta {
		return walOp{}, fmt.Errorf("sqldb: wal: op kind %d inside a prepared part", kind)
	}
	op := walOp{kind: kind}
	switch kind {
	case walOpInsert:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		if op.slot, err = d.index(maxSlot); err != nil {
			return op, err
		}
		n, err := d.count(1) // a value is at least its kind byte
		if err != nil {
			return op, err
		}
		op.row = make([]Value, n)
		for i := range op.row {
			if op.row[i], err = d.value(); err != nil {
				return op, err
			}
		}
	case walOpDelete:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		if op.slot, err = d.index(maxSlot); err != nil {
			return op, err
		}
	case walOpUpdate:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		if op.slot, err = d.index(maxSlot); err != nil {
			return op, err
		}
		if op.pos, err = d.index(maxSlot); err != nil {
			return op, err
		}
		if op.val, err = d.value(); err != nil {
			return op, err
		}
	case walOpCreateTable:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		n, err := d.count(3) // name length, type, primary flag
		if err != nil {
			return op, err
		}
		op.cols = make([]walColDef, n)
		for i := range op.cols {
			if op.cols[i].name, err = d.string(); err != nil {
				return op, err
			}
			t, err := d.byte()
			if err != nil {
				return op, err
			}
			p, err := d.byte()
			if err != nil {
				return op, err
			}
			op.cols[i].typ = sqlparser.ColType(t)
			op.cols[i].primary = p != 0
		}
	case walOpCreateIndex:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
		if op.column, err = d.string(); err != nil {
			return op, err
		}
		flags, err := d.byte()
		if err != nil {
			return op, err
		}
		op.unique = flags&1 != 0
		op.ordered = flags&2 != 0
	case walOpDropTable:
		if op.table, err = d.string(); err != nil {
			return op, err
		}
	case walOpMeta:
		n, err := d.uvarint()
		if err != nil {
			return op, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return op, err
		}
		op.meta = append([]byte(nil), b...)
	case walOpPrepare:
		if op.id, err = d.uvarint(); err != nil {
			return op, err
		}
		n, err := d.uvarint()
		if err != nil {
			return op, err
		}
		b, err := d.bytes(n)
		if err != nil {
			return op, err
		}
		// A part holds row and DDL ops only: no blob, and no part inside it.
		for pd := (&walDecoder{buf: b, part: true}); !pd.done(); {
			if _, err := pd.op(); err != nil {
				return op, err
			}
		}
		op.part = append([]byte(nil), b...)
	case walOpDecide:
		if op.id, err = d.uvarint(); err != nil {
			return op, err
		}
	case walOpResolve:
		if op.id, err = d.uvarint(); err != nil {
			return op, err
		}
		flag, err := d.byte()
		if err != nil {
			return op, err
		}
		if flag > 1 {
			return op, fmt.Errorf("sqldb: wal: outcome flag %d", flag)
		}
		op.commit = flag == 1
	default:
		return op, fmt.Errorf("sqldb: wal: unknown op kind %d", kind)
	}
	return op, nil
}

//
// Replay: apply a decoded op to the database. Used for WAL recovery, for
// replicated frames, and for loading snapshot streams (a self-contained op
// stream that rebuilds the whole database). Ops bypass the SQL layer: the
// original execution already validated them, so constraint checks are
// skipped — but an op naming a column or slot the table cannot have is
// refused, never allowed to index out of range.
//

func (db *DB) applyOp(op walOp) error {
	switch op.kind {
	case walOpCreateTable:
		if _, exists := db.tables[op.table]; exists {
			return fmt.Errorf("sqldb: wal replay: table %s already exists", op.table)
		}
		cols := make([]Column, len(op.cols))
		for i, c := range op.cols {
			cols[i] = Column{Name: c.name, Type: c.typ, Primary: c.primary}
		}
		return db.createTable(op.table, cols)
	case walOpMeta:
		db.meta = op.meta
		db.metaVer.Add(1)
		return nil
	case walOpPrepare:
		if _, held := db.pending[op.id]; held {
			return fmt.Errorf("sqldb: wal replay: part %d is prepared twice", op.id)
		}
		db.pending[op.id] = op.part
		return nil
	case walOpDecide:
		return nil // read by recovery alone (recoverOp)
	case walOpResolve:
		return db.resolveLocked(op.id, op.commit)
	}
	t, ok := db.tables[op.table]
	if !ok {
		return fmt.Errorf("sqldb: wal replay: no table %s", op.table)
	}
	switch op.kind {
	case walOpCreateIndex:
		if op.ordered {
			return t.addOrdIndex(op.column)
		}
		return t.addIndex(op.column, op.unique)
	case walOpDropTable:
		db.pager.forgetTable(t)
		delete(db.tables, op.table)
		return nil
	case walOpInsert:
		if len(op.row) != len(t.Cols) {
			return fmt.Errorf("sqldb: wal replay: %d values for the %d columns of %s", len(op.row), len(t.Cols), op.table)
		}
		return t.placeRow(op.slot, op.row)
	case walOpDelete:
		_, err := t.deleteRow(op.slot)
		return err
	case walOpUpdate:
		row, err := t.rowAt(op.slot)
		if err != nil {
			return err
		}
		if row == nil {
			return fmt.Errorf("sqldb: wal replay: update of empty slot %d in %s", op.slot, op.table)
		}
		if op.pos >= len(t.Cols) {
			return fmt.Errorf("sqldb: wal replay: update of column %d in %d-column %s", op.pos, len(t.Cols), op.table)
		}
		return t.updateCellUnchecked(op.slot, op.pos, op.val)
	}
	return fmt.Errorf("sqldb: wal replay: unknown op kind %d", op.kind)
}

//
// WAL file writer with group commit.
//
// Committers do not write the file themselves. Under the database lock they
// enqueue their framed batch into the current cohort (a cheap memcpy, so
// frames land in the file in sequence order — recovery depends on the log
// being a dependency-ordered prefix); after releasing the database lock they
// wait for the cohort to reach disk. The first waiter becomes the leader: it
// takes the cohort, performs one write+fsync for every batch in it, and then
// keeps flushing any cohorts that accumulated behind it before stepping
// down. N concurrent committers therefore pay ~1 fsync instead of N — the
// transparent amortization the durability figure shows fsync needs (it
// dominates the write path ~40x).
//
// Cohorts only amortize if committers actually overlap. Committers announce
// themselves (announce/retire) when they enter the commit path, and the
// leader grants announced-but-not-yet-staged committers a brief yield
// window (bounded by groupCommitWindow, a fraction of one fsync) to get
// their frames into the cohort before it pays the fsync. Without this, a
// machine with few cores degenerates into a convoy — the leader's fsync
// syscall monopolizes the CPU, waiters only run between fsyncs, and every
// cohort ends up holding a single batch.
//

// groupCommitWindow bounds how long a leader waits for announced committers
// to stage their frames before flushing. Small against one fsync (~100µs on
// a local SSD, milliseconds on spinning or networked storage), so worst
// case it adds a fraction of the latency it can save.
const groupCommitWindow = 200 * time.Microsecond

// walCohort is one group of framed batches that will hit the disk in a
// single write+fsync.
type walCohort struct {
	frames []byte        // concatenated frames, in enqueue (= sequence) order
	n      int64         // batches in the cohort
	done   chan struct{} // closed once the cohort is on disk (or failed)
	err    error         // set before done is closed
	lead   chan struct{} // leadership baton (buffered 1; see waitFlush)
}

type walWriter struct {
	fs      fsutil.FS
	f       fsutil.File
	path    string
	fsync   bool
	noGroup bool // ablation: one private cohort (and one fsync) per commit

	mu       sync.Mutex
	cond     *sync.Cond   // signaled when a leader steps down
	queue    []*walCohort // staged cohorts; the tail accepts enqueues
	flushing bool         // some goroutine holds (or is being handed) leadership
	closed   bool
	// failed poisons the writer after a cohort write or sync error: the
	// file may hold a torn frame at an unknown offset, and appending past
	// it would let recovery silently discard later acknowledged commits
	// (replay cuts at the first damaged frame). Every subsequent commit
	// fails fast instead. A successful checkpoint clears it: the manifest
	// captured the state and the truncated log is whole again.
	failed error

	// announced counts committers currently inside the commit path
	// (announce..retire); staged counts frames sitting in the queue.
	// announced > staged means more committers are on their way and a
	// leader should give them a moment to join the cohort.
	announced atomic.Int64
	staged    atomic.Int64

	// taps are live replication subscribers (guarded by mu). A cohort's
	// frames are handed to every tap after — never before — its
	// write+fsync succeeds, so a follower can only ever see durable
	// commits.
	taps []*LogTap

	// stats (atomics: read by WALStats without the writer lock)
	size    atomic.Int64
	batches atomic.Int64
	bytes   atomic.Int64
	syncs   atomic.Int64
}

// announce registers an in-flight committer; retire must follow once its
// batch is durable (or its statement failed before producing one).
func (w *walWriter) announce() { w.announced.Add(1) }
func (w *walWriter) retire()   { w.announced.Add(-1) }

func newWALHeader() []byte {
	h := make([]byte, walHeaderLen)
	copy(h, walMagic)
	binary.BigEndian.PutUint32(h[8:], walVersion)
	return h
}

func newWALWriter(fsys fsutil.FS, f fsutil.File, path string, size int64, fsync, noGroup bool) *walWriter {
	w := &walWriter{fs: fsys, f: f, path: path, fsync: fsync, noGroup: noGroup}
	w.size.Store(size)
	w.cond = sync.NewCond(&w.mu)
	return w
}

// appendFrame appends one frame to dst: the payload's length, its CRC-32,
// then the payload, given in parts. Every CRC-framed byte the database
// writes — WAL batches, page segments, the manifest — is framed here.
func appendFrame(dst []byte, parts ...[]byte) []byte {
	var n int
	var crc uint32
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, crc)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// buildFrame frames one batch: its sequence number, then its ops.
func buildFrame(seq uint64, ops []byte) []byte {
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	return appendFrame(make([]byte, 0, frameHdrLen+len(seqb)+len(ops)), seqb[:], ops)
}

// readFrame decodes the frame at the start of data, returning its payload
// and the bytes after the frame. An error means the bytes there are not a
// whole frame with a matching CRC: a torn tail, or damage.
func readFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameHdrLen {
		return nil, nil, fmt.Errorf("sqldb: frame header truncated (%d bytes)", len(data))
	}
	plen := binary.BigEndian.Uint32(data)
	if plen > maxFrameLen || int(plen) > len(data)-frameHdrLen {
		return nil, nil, fmt.Errorf("sqldb: frame length %d exceeds the %d bytes left", plen, len(data)-frameHdrLen)
	}
	payload, rest = data[frameHdrLen:frameHdrLen+int(plen)], data[frameHdrLen+int(plen):]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[4:]) {
		return nil, nil, fmt.Errorf("sqldb: frame failed CRC check")
	}
	return payload, rest, nil
}

// errTrailingBytes refuses bytes after a frame that must end its input:
// a page segment, a manifest, a replicated frame.
var errTrailingBytes = errors.New("sqldb: bytes after the frame")

// readOneFrame is readFrame for an input that is exactly one frame.
func readOneFrame(data []byte) ([]byte, error) {
	payload, rest, err := readFrame(data)
	if err == nil && len(rest) > 0 {
		err = errTrailingBytes
	}
	return payload, err
}

// readBatch decodes the WAL frame at the start of data into its batch
// sequence number and its encoded ops.
func readBatch(data []byte) (seq uint64, ops, rest []byte, err error) {
	payload, rest, err := readFrame(data)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(payload) < 8 {
		return 0, nil, nil, fmt.Errorf("sqldb: %d-byte frame holds no batch sequence number", len(payload))
	}
	return binary.BigEndian.Uint64(payload), payload[8:], rest, nil
}

// decodeOps decodes a batch's ops.
func decodeOps(buf []byte) ([]walOp, error) {
	var ops []walOp
	d := &walDecoder{buf: buf}
	for !d.done() {
		op, err := d.op()
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// enqueue stages one committed batch into the current cohort and returns a
// handle to wait on. MUST be called while the caller still holds the
// database write lock that assigned seq: cohort order is file order, and
// recovery requires the log to be a dependency-ordered prefix (a batch that
// updates a row may never precede the batch that inserted it).
func (w *walWriter) enqueue(seq uint64, ops []byte) *walCohort {
	frame := buildFrame(seq, ops)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.failed != nil {
		err := w.failed
		if err == nil {
			err = fmt.Errorf("sqldb: wal is closed")
		} else {
			err = fmt.Errorf("sqldb: wal disabled by earlier write failure: %w", err)
		}
		c := &walCohort{err: err, done: make(chan struct{})}
		close(c.done)
		return c
	}
	// The tail cohort accepts new frames; a cohort being flushed has
	// already been popped, so it can no longer grow. In noGroup mode
	// every batch gets a private cohort — and its own fsync.
	if len(w.queue) == 0 || w.noGroup {
		w.queue = append(w.queue, &walCohort{done: make(chan struct{}), lead: make(chan struct{}, 1)})
	}
	c := w.queue[len(w.queue)-1]
	c.frames = append(c.frames, frame...)
	c.n++
	w.staged.Add(1)
	return c
}

// waitFlush blocks until c is durable. The first committer to arrive while
// no flush is in progress becomes the leader; a committer arriving during a
// flush waits for either its cohort's verdict or the leadership baton — the
// outgoing leader hands the baton to the next staged cohort once its own
// cohort is durable, so under sustained load leadership rotates instead of
// capturing one unlucky session for the duration of the burst.
func (w *walWriter) waitFlush(c *walCohort) error {
	w.mu.Lock()
	if w.flushing {
		w.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-c.lead:
			w.mu.Lock() // baton received: leadership (flushing stays true)
		}
	} else {
		w.flushing = true
	}
	return w.leadUntilDone(c)
}

// leadUntilDone flushes cohorts in order until c is durable, then hands
// leadership to a waiter of the next staged cohort (or steps down when the
// queue is empty). Called with w.mu held and leadership owned; returns with
// w.mu released.
func (w *walWriter) leadUntilDone(c *walCohort) error {
	for {
		select {
		case <-c.done:
			if len(w.queue) > 0 {
				next := w.queue[0]
				w.mu.Unlock()
				next.lead <- struct{}{} // buffered: waiter may not have arrived yet
			} else {
				w.flushing = false
				w.cond.Broadcast()
				w.mu.Unlock()
			}
			return c.err
		default:
		}
		// Hold the head cohort open for announced stragglers before
		// popping it: enqueue only ever appends to the queue tail, so the
		// window is useless once the cohort has left the queue. The queue
		// cannot be empty here — c is staged and unflushed, and only the
		// leader pops.
		if w.failed == nil {
			w.awaitStragglers()
		}
		w.flushHeadLocked()
	}
}

// flushHeadLocked pops the head cohort and disposes of it: failed fast
// when the writer is poisoned, written+synced otherwise, with any error
// promoted into the sticky failure. Called with w.mu held and the flushing
// flag owned; returns with w.mu held.
func (w *walWriter) flushHeadLocked() {
	cohort := w.queue[0]
	w.queue = w.queue[1:]
	w.staged.Add(-cohort.n)
	if w.failed != nil {
		cohort.err = fmt.Errorf("sqldb: wal disabled by earlier write failure: %w", w.failed)
		close(cohort.done)
		return
	}
	w.mu.Unlock()
	w.flushCohort(cohort)
	w.mu.Lock()
	if cohort.err != nil && w.failed == nil {
		w.failed = cohort.err
	}
	if cohort.err == nil {
		// Deliver under w.mu: the flushing flag serializes flushes, and
		// delivering before the next cohort can flush keeps every tap in
		// file (= sequence) order.
		for _, t := range w.taps {
			t.deliver(cohort.frames)
		}
	}
}

// removeTap unsubscribes a tap.
func (w *walWriter) removeTap(tap *LogTap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, t := range w.taps {
		if t == tap {
			w.taps = append(w.taps[:i], w.taps[i+1:]...)
			return
		}
	}
}

// invalidateTaps marks every subscriber lagged: the log's contents no
// longer continue the stream the taps have seen, so subscribers must
// re-establish (and possibly resync from a snapshot).
func (w *walWriter) invalidateTaps() {
	w.mu.Lock()
	taps := append([]*LogTap(nil), w.taps...)
	w.mu.Unlock()
	for _, t := range taps {
		t.invalidate()
	}
}

// awaitStragglers yields briefly (bounded by groupCommitWindow) while more
// committers are announced than staged, so their frames make this cohort's
// fsync instead of forcing their own. Called by the leader with w.mu held;
// returns with w.mu held. Skipped when fsync is off (nothing expensive to
// share) and in the noGroup ablation.
func (w *walWriter) awaitStragglers() {
	if !w.fsync || w.noGroup {
		return
	}
	w.mu.Unlock()
	// One unconditional yield before sampling: concurrent committers can
	// only announce and stage while this goroutine gives up the CPU — the
	// fsync below is a syscall that never does, so on a single-core host
	// this yield is the only thing that lets cohorts form at all.
	runtime.Gosched()
	deadline := time.Now().Add(groupCommitWindow)
	for w.announced.Load() > w.staged.Load() {
		runtime.Gosched()
		if time.Now().After(deadline) {
			break
		}
	}
	w.mu.Lock()
}

// flushCohort writes one cohort to the file and syncs it. Runs outside
// w.mu; the flushing flag guarantees a single writer.
func (w *walWriter) flushCohort(c *walCohort) {
	_, err := w.f.Write(c.frames)
	if err != nil {
		err = fmt.Errorf("sqldb: wal append: %w", err)
	} else if w.fsync {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("sqldb: wal sync: %w", serr)
		} else {
			w.syncs.Add(1)
		}
	}
	if err == nil {
		w.size.Add(int64(len(c.frames)))
		w.batches.Add(c.n)
		w.bytes.Add(int64(len(c.frames)))
	}
	c.err = err
	close(c.done)
}

// drainLocked flushes every staged cohort and waits for any in-flight
// leader, leaving the writer idle. Called with w.mu held.
func (w *walWriter) drainLocked() {
	for len(w.queue) > 0 || w.flushing {
		if w.flushing {
			w.cond.Wait()
			continue
		}
		w.flushing = true
		w.flushHeadLocked()
		w.flushing = false
		w.cond.Broadcast()
	}
}

// truncateTo rewrites the log keeping only frames with seq > keep, after an
// incremental checkpoint whose manifest covers everything up to keep.
// Commits may have landed since the checkpoint captured its state — their
// frames must survive the truncation, and in one contiguous log so
// replication backfill (readFrames on this same path) keeps working. The
// rewrite is atomic (fsutil.Install), so a crash leaves either log, both
// correct to replay against the new manifest. A successful truncation cures
// a poisoned writer — the manifest captured every state the damaged frames
// described — but commits that failed during the poisoned window applied in
// memory without ever reaching a tap, so subscribers must resync.
func (w *walWriter) truncateTo(keep uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("sqldb: wal is closed")
	}
	w.drainLocked()
	// A torn frame left by the poisoning failure decodes as damage and is
	// dropped here; its batch carries seq <= keep (the checkpoint ran after
	// it applied), so the manifest already covers it.
	frames, err := readFrames(w.fs, w.path, keep)
	if err != nil {
		return fmt.Errorf("sqldb: wal truncate scan: %w", err)
	}
	f, err := fsutil.Install(w.fs, w.path, append(newWALHeader(), frames...), w.fsync)
	if err != nil {
		return fmt.Errorf("sqldb: wal truncate: %w", err)
	}
	if w.fsync {
		w.syncs.Add(1)
	}
	old := w.f
	w.f = f
	//cryptdb:vet-ok durabilityerr: old descriptor is fully synced and replaced; nothing left to flush
	old.Close()
	w.size.Store(int64(walHeaderLen + len(frames)))
	if w.failed != nil {
		for _, t := range w.taps {
			t.invalidate()
		}
	}
	w.failed = nil
	return nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.drainLocked()
	w.closed = true
	w.mu.Unlock()
	if w.fsync {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.f.Close()
}

// walBatch is one committed batch read back during recovery.
type walBatch struct {
	seq uint64
	ops []walOp
}

// scanWAL is the one reader of a WAL file: recovery (readWAL), checkpoint
// truncation and tap backfill (readFrames) all see the log through it, so
// they agree on where it ends. It checks the header, then calls fn with
// every batch whose sequence number is above from, decoded, and stops at
// the first frame that is torn, fails its CRC, or — above from — does not
// decode: a torn or corrupt tail is expected after a crash and is cut off,
// and damage in the middle of the file cannot be told from a torn tail,
// so everything after it is discarded either way. It returns the offset of
// that frame, the end of the log.
func scanWAL(fsys fsutil.FS, path string, from uint64, fn func(seq uint64, ops []walOp, frame []byte)) (int64, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < walHeaderLen || string(data[:8]) != walMagic {
		return 0, fmt.Errorf("sqldb: %s is not a wal file", path)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != walVersion {
		return 0, fmt.Errorf("sqldb: wal version %d not supported", v)
	}
	log := data[walHeaderLen:]
	for {
		seq, raw, rest, err := readBatch(log)
		if err != nil {
			return int64(len(data) - len(log)), nil
		}
		if seq > from {
			ops, err := decodeOps(raw)
			if err != nil {
				return int64(len(data) - len(log)), nil
			}
			fn(seq, ops, log[:len(log)-len(rest)])
		}
		log = rest
	}
}

// readWAL returns the batches of a WAL file past from, for recovery, and
// the end of the log.
func readWAL(fsys fsutil.FS, path string, from uint64) (batches []walBatch, end int64, err error) {
	end, err = scanWAL(fsys, path, from, func(seq uint64, ops []walOp, _ []byte) {
		batches = append(batches, walBatch{seq: seq, ops: ops})
	})
	return batches, end, err
}
