// Incremental checkpoints, recovery from them, and the background
// checkpointer.
//
// On-disk layout of a durable database directory:
//
//	LOCK                 flock held for the database's lifetime
//	wal.log              CRC-framed redo batches (see wal.go)
//	MANIFEST             walSeq-gated root: schema ops + page directory
//	pages/seg-*.pg       one slotted segment file per checkpointed page
//
// The MANIFEST records the WAL sequence S it covers, the schema (as a
// WAL-op stream), and for every non-empty page the segment file holding its
// rows as of S. Recovery is: load the manifest, then replay WAL batches with
// seq > S.
//
// A checkpoint writes only the pages dirtied since the last one — pause is
// proportional to churn, not data size — in three phases:
//
//  1. Capture, with db.mu held: encode every dirty page, clear dirty and
//     set flushing so eviction keeps its hands off, and snapshot the
//     manifest directory at S.
//  2. Write, without db.mu: segment files and a new MANIFEST, each synced,
//     the manifest installed atomically (temp + fsync + rename + dir
//     sync). Commits proceed concurrently; their frames carry seq > S and
//     replay on top.
//  3. Install, with db.mu held: point pages at their new segments, advance
//     snapSeq, and truncate the WAL to frames > S.
//
// Crash safety: segment files are never overwritten — every checkpoint
// writes fresh names and the manifest references exactly the files that
// make up state S, so a crash in any phase leaves either the old manifest
// (new segments are unreferenced orphans, swept at Open) or the new one
// (the stale WAL prefix is skipped by its sequence numbers). Orphans and
// replaced segments are deleted only after the new manifest is durable.
package sqldb

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
)

const (
	manifestName = "MANIFEST"
	pagesDirName = "pages"
	manMagic     = "CDBMAN\x00\x01"
	segMagic     = "CDBSEG\x00\x01"
	manHeaderLen = 32 // magic[8] version[4] reserved[4] walSeq[8] fileSeq[8]
	manVersion   = 1
)

// segFileName names the numbered segment file; names are never reused
// within one database (fileSeq persists in the manifest).
func segFileName(n uint64) string { return fmt.Sprintf("seg-%016x.pg", n) }

//
// Segment files
//

// buildSegFile encodes one page's live rows as a self-contained slotted
// segment: each row is tagged with its local slot, so loading never needs
// the rest of the table. Callers hold db.mu.
func buildSegFile(table string, id int, p *rowPage) []byte {
	var payload []byte
	payload = appendString(payload, table)
	payload = appendUvarint(payload, uint64(id))
	payload = appendUvarint(payload, uint64(p.live))
	for i := 0; i < pageSlots; i++ {
		row := p.rows[i]
		if row == nil {
			continue
		}
		payload = append(payload, byte(i))
		payload = appendUvarint(payload, uint64(len(row)))
		for _, v := range row {
			payload = appendValue(payload, v)
		}
	}
	buf := make([]byte, 0, len(segMagic)+frameHdrLen+len(payload))
	return appendFrame(append(buf, segMagic...), payload)
}

// parseSegFile verifies and decodes one segment file, invoking fn for each
// stored row with its local slot, in ascending order.
func parseSegFile(data []byte, fn func(local int, row []Value) error) (table string, id int, err error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return "", 0, fmt.Errorf("sqldb: not a page segment file")
	}
	payload, err := readOneFrame(data[len(segMagic):])
	if err != nil {
		return "", 0, fmt.Errorf("sqldb: page segment: %w", err)
	}
	d := &walDecoder{buf: payload}
	if table, err = d.string(); err != nil {
		return "", 0, err
	}
	if id, err = d.index(maxSlot >> pageShift); err != nil {
		return "", 0, err
	}
	count, err := d.uvarint()
	if err != nil {
		return "", 0, err
	}
	prev := -1
	for n := uint64(0); n < count; n++ {
		local, err := d.byte()
		if err != nil {
			return table, id, err
		}
		if int(local) <= prev {
			return table, id, fmt.Errorf("sqldb: page segment slot %d follows slot %d", local, prev)
		}
		prev = int(local)
		ncells, err := d.count(1)
		if err != nil {
			return table, id, err
		}
		row := make([]Value, ncells)
		for i := range row {
			if row[i], err = d.value(); err != nil {
				return table, id, err
			}
		}
		if err := fn(int(local), row); err != nil {
			return table, id, err
		}
	}
	return table, id, nil
}

// decodeSegment parses a segment file into a clean page, checking that it
// holds page id of t and rows of t's width.
func decodeSegment(data []byte, t *Table, id int) (*rowPage, error) {
	p := &rowPage{}
	table, gotID, err := parseSegFile(data, func(local int, row []Value) error {
		if len(row) != len(t.Cols) {
			return fmt.Errorf("sqldb: segment row has %d values for the %d columns of %s", len(row), len(t.Cols), t.Name)
		}
		p.rows[local] = row
		p.live++
		p.bytes += rowBytes(row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if table != t.Name || gotID != id {
		return nil, fmt.Errorf("sqldb: segment holds page %d of %s, wanted %d of %s", gotID, table, id, t.Name)
	}
	return p, nil
}

//
// Manifest
//

// manEntry is one page-directory line of the manifest.
type manEntry struct {
	table string
	id    int
	file  string
	bytes int64
}

// buildManifest encodes the manifest: header, then a CRC-framed payload of
// schema ops and the page directory.
func buildManifest(walSeq, fileSeq uint64, schemaOps []byte, entries []manEntry) []byte {
	var payload []byte
	payload = appendUvarint(payload, uint64(len(schemaOps)))
	payload = append(payload, schemaOps...)
	payload = appendUvarint(payload, uint64(len(entries)))
	for _, e := range entries {
		payload = appendString(payload, e.table)
		payload = appendUvarint(payload, uint64(e.id))
		payload = appendString(payload, e.file)
		payload = appendUvarint(payload, uint64(e.bytes))
	}
	buf := make([]byte, manHeaderLen, manHeaderLen+frameHdrLen+len(payload))
	copy(buf, manMagic)
	binary.BigEndian.PutUint32(buf[8:], manVersion)
	binary.BigEndian.PutUint64(buf[16:], walSeq)
	binary.BigEndian.PutUint64(buf[24:], fileSeq)
	return appendFrame(buf, payload)
}

// parseManifest verifies a manifest and returns its fields. A damaged
// manifest is fatal: it is installed atomically, so damage means real
// corruption.
func parseManifest(data []byte, path string) (walSeq, fileSeq uint64, schemaOps []byte, entries []manEntry, err error) {
	if len(data) < manHeaderLen || string(data[:8]) != manMagic {
		return 0, 0, nil, nil, fmt.Errorf("sqldb: %s is not a manifest file", path)
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != manVersion {
		return 0, 0, nil, nil, fmt.Errorf("sqldb: manifest version %d not supported", v)
	}
	walSeq = binary.BigEndian.Uint64(data[16:24])
	fileSeq = binary.BigEndian.Uint64(data[24:32])
	payload, err := readOneFrame(data[manHeaderLen:])
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("sqldb: manifest %s: %w", path, err)
	}
	d := &walDecoder{buf: payload}
	slen, err := d.uvarint()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if schemaOps, err = d.bytes(slen); err != nil {
		return 0, 0, nil, nil, err
	}
	n, err := d.count(4) // table length, page id, file length, size
	if err != nil {
		return 0, 0, nil, nil, err
	}
	entries = make([]manEntry, 0, n)
	for i := 0; i < n; i++ {
		var e manEntry
		if e.table, err = d.string(); err != nil {
			return 0, 0, nil, nil, err
		}
		if e.id, err = d.index(maxSlot >> pageShift); err != nil {
			return 0, 0, nil, nil, err
		}
		if e.file, err = d.string(); err != nil {
			return 0, 0, nil, nil, err
		}
		b, err := d.uvarint()
		if err != nil {
			return 0, 0, nil, nil, err
		}
		e.bytes = int64(b)
		entries = append(entries, e)
	}
	return walSeq, fileSeq, schemaOps, entries, nil
}

//
// Incremental checkpoint
//

// pendingSeg is one dirty page captured by phase 1. file is "" when the
// page emptied since its last checkpoint (its directory entry is dropped).
type pendingSeg struct {
	t    *Table
	id   int
	p    *rowPage
	file string
	data []byte
}

// ckptCapture is phase 1: encode every dirty page and snapshot the page
// directory at the current sequence. Callers hold db.mu's write side.
func (db *DB) ckptCapture() (seq uint64, segs []pendingSeg, entries []manEntry, schemaOps []byte) {
	seq = db.walSeq
	schemaOps = db.schemaOps()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		t := db.tables[name]
		t.growTo(t.nslots) // ensure disk parallels pages
		for id := range t.pages {
			p := t.pages[id].Load()
			if p != nil && p.dirty {
				p.dirty = false
				p.flushing = true
				if p.live > 0 {
					file := segFileName(db.pager.fileSeq)
					db.pager.fileSeq++
					data := buildSegFile(t.Name, id, p)
					segs = append(segs, pendingSeg{t: t, id: id, p: p, file: file, data: data})
					entries = append(entries, manEntry{table: t.Name, id: id, file: file, bytes: int64(len(data))})
				} else {
					segs = append(segs, pendingSeg{t: t, id: id, p: p})
				}
			} else if rec := t.disk[id]; rec.file != "" {
				entries = append(entries, manEntry{table: t.Name, id: id, file: rec.file, bytes: rec.bytes})
			}
		}
	}
	return seq, segs, entries, schemaOps
}

// ckptWrite is phase 2: write and sync every new segment, then install the
// new manifest atomically. Runs without db.mu; concurrent commits land in
// the WAL with sequence numbers past the captured seq.
func (db *DB) ckptWrite(seq uint64, segs []pendingSeg, entries []manEntry, schemaOps []byte) (int64, error) {
	sync := !db.dopts.NoFsync
	var written int64
	var err error
	for _, s := range segs {
		if s.file == "" {
			continue
		}
		if err = fsutil.WriteFile(db.fs, filepath.Join(db.pager.dir, s.file), s.data, sync); err != nil {
			break
		}
		written += int64(len(s.data))
	}
	if err == nil && written > 0 && sync {
		// Segment directory entries must be durable before the manifest
		// references them.
		err = db.fs.SyncDir(db.pager.dir)
	}
	if err != nil {
		// No manifest names the new segments: remove them, best-effort (the
		// Open-time orphan sweep catches leftovers).
		for _, s := range segs {
			if s.file != "" {
				db.fs.Remove(filepath.Join(db.pager.dir, s.file))
			}
		}
		return 0, fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	// A failed install may have renamed the new manifest into place before
	// its directory sync failed, so the new segments stay: whichever
	// manifest a crash leaves must find its files. The Open-time sweep
	// removes them once no manifest names them.
	man := buildManifest(seq, db.pager.fileSeq, schemaOps, entries)
	if err := fsutil.InstallFile(db.fs, filepath.Join(db.dir, manifestName), man, sync); err != nil {
		return 0, fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	return written + int64(len(man)), nil
}

// ckptInstall is phase 3: point pages at their new segments, advance
// snapSeq, and swap the referenced file set. Returns the segment files the
// new manifest no longer references (deleted by the caller off-lock). The
// WAL truncation — an fsync — is the caller's job, off this lock; its only
// ordering requirement is to run after the manifest install, which has
// happened by now. Callers hold db.mu's write side.
func (db *DB) ckptInstall(seq uint64, segs []pendingSeg, entries []manEntry, written int64) (obsolete []string) {
	for _, s := range segs {
		s.p.flushing = false
		if s.t.dropped {
			continue
		}
		if s.file != "" {
			s.t.disk[s.id] = pageDiskRec{file: s.file, bytes: int64(len(s.data))}
		} else {
			s.t.disk[s.id] = pageDiskRec{}
		}
	}
	newFiles := make(map[string]int64, len(entries))
	var diskTotal int64
	for _, e := range entries {
		newFiles[e.file] = e.bytes
		diskTotal += e.bytes
	}
	for f := range db.pager.segFiles {
		if _, ok := newFiles[f]; !ok {
			obsolete = append(obsolete, f)
		}
	}
	db.pager.segFiles = newFiles
	db.pager.diskBytes.Store(diskTotal)
	db.snapSeq = seq
	db.checkpoints++
	db.lastCkptBytes.Store(written)
	return obsolete
}

// ckptAbort re-marks the captured pages dirty after a failed phase 2, so
// their changes are rewritten by the next checkpoint. Callers hold db.mu's
// write side.
func (db *DB) ckptAbort(segs []pendingSeg) {
	for _, s := range segs {
		s.p.flushing = false
		s.p.dirty = true
	}
}

// Checkpoint writes every page dirtied since the last checkpoint to a fresh
// segment file, installs a manifest covering the current sequence number and
// truncates the WAL, bounding recovery time and disk usage. Open
// transactions do not block it: their writes live in private buffers, so the
// shared tables always hold exactly the committed state. Commits flow
// concurrently during the write phase — their batches carry sequence numbers
// past the manifest's and replay on top — so only the capture and install
// phases pause the database; their time is what CheckpointPauseNanos
// reports. A no-op on an in-memory database.
func (db *DB) Checkpoint() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	db.mu.Lock()
	if db.wal == nil {
		db.mu.Unlock()
		return nil
	}
	start := time.Now()
	seq, segs, entries, schemaOps := db.ckptCapture()
	pause := int64(time.Since(start))
	db.mu.Unlock()

	written, err := db.ckptWrite(seq, segs, entries, schemaOps)
	if err != nil {
		db.mu.Lock()
		db.ckptAbort(segs)
		db.mu.Unlock()
		return err
	}

	db.mu.Lock()
	start = time.Now()
	obsolete := db.ckptInstall(seq, segs, entries, written)
	pause += int64(time.Since(start))
	db.mu.Unlock()
	db.ckptPauseNanos.Add(pause)

	// Truncate the WAL off db.mu: the manifest now covers seq, so the only
	// ordering that matters (install before truncate) already holds, and
	// the truncation's fsync must not stall statements. A failure leaves
	// the log redundant but correct — replay skips frames <= seq.
	err = db.wal.truncateTo(seq)
	db.removeSegFiles(obsolete)
	return err
}

// checkpointHeld runs all three phases with db.mu already held: Open (when
// it writes a directory's first manifest) and ResetFromSnapshot need the
// checkpoint inside their critical section. Callers that can race another
// checkpoint hold db.ckptMu (acquired before db.mu).
func (db *DB) checkpointHeld() error {
	start := time.Now()
	seq, segs, entries, schemaOps := db.ckptCapture()
	written, err := db.ckptWrite(seq, segs, entries, schemaOps)
	if err != nil {
		db.ckptAbort(segs)
		return err
	}
	obsolete := db.ckptInstall(seq, segs, entries, written)
	err = db.wal.truncateTo(seq)
	db.ckptPauseNanos.Add(int64(time.Since(start)))
	db.removeSegFiles(obsolete)
	return err
}

// removeSegFiles deletes replaced segment files, best-effort: a leftover is
// an orphan the next Open sweeps.
func (db *DB) removeSegFiles(names []string) {
	for _, f := range names {
		db.fs.Remove(filepath.Join(db.pager.dir, f))
	}
}

//
// Recovery (Open with a MANIFEST present)
//

// loadPaged rebuilds state from the manifest and its segments. Every
// segment is decoded once to rebuild the indexes. An unbounded cache keeps
// each decoded page, so it reopens fully in memory and never faults. A
// bounded one starts cold and fills with the pages statements touch —
// installing in manifest order would spend the budget on the first tables'
// first pages — so its recovery memory is the index size. Returns the WAL
// sequence the manifest covers.
func (db *DB) loadPaged(path string) (uint64, error) {
	data, err := db.fs.ReadFile(path)
	if err != nil {
		return 0, err
	}
	walSeq, fileSeq, schemaOps, entries, err := parseManifest(data, path)
	if err != nil {
		return 0, err
	}
	pg := db.pager
	pg.fileSeq = fileSeq
	keep := pg.budget == unbounded
	d := &walDecoder{buf: schemaOps}
	for !d.done() {
		op, err := d.op()
		if err != nil {
			return 0, fmt.Errorf("sqldb: manifest schema decode: %w", err)
		}
		if err := db.recoverOp(op); err != nil {
			return 0, fmt.Errorf("sqldb: manifest schema load: %w", err)
		}
	}
	// Occupancy per table, to rebuild slot-space bounds and free lists with
	// exactly the semantics replaying a snapshot stream has: trailing free
	// slots are dropped, interior gaps enter the free list in ascending order.
	type occ struct {
		max  int
		bits []uint64
	}
	occs := make(map[string]*occ)
	var diskTotal int64
	for _, e := range entries {
		t := db.tables[e.table]
		if t == nil {
			return 0, fmt.Errorf("sqldb: manifest references unknown table %s", e.table)
		}
		seg, err := db.fs.ReadFile(filepath.Join(pg.dir, e.file))
		if err != nil {
			return 0, fmt.Errorf("sqldb: reading page segment: %w", err)
		}
		p, err := decodeSegment(seg, t, e.id)
		if err != nil {
			return 0, fmt.Errorf("sqldb: page segment %s: %w", e.file, err)
		}
		o := occs[e.table]
		if o == nil {
			o = &occ{max: -1}
			occs[e.table] = o
		}
		for local, row := range p.rows {
			if row == nil {
				continue
			}
			slot := e.id<<pageShift + local
			for _, idx := range t.indexes {
				idx.addSlot(row[idx.pos].Key(), slot)
			}
			for _, ix := range t.ordIndexes {
				ix.insert(row[ix.pos], slot)
			}
			if slot > o.max {
				o.max = slot
			}
			for len(o.bits) <= slot/64 {
				o.bits = append(o.bits, 0)
			}
			o.bits[slot/64] |= 1 << (slot % 64)
		}
		t.dataBytes += p.bytes
		t.live += p.live
		for len(t.pages) <= e.id {
			t.pages = append(t.pages, atomic.Pointer[rowPage]{})
		}
		for len(t.disk) <= e.id {
			t.disk = append(t.disk, pageDiskRec{})
		}
		t.disk[e.id] = pageDiskRec{file: e.file, bytes: e.bytes}
		if keep {
			t.pages[e.id].Store(p)
			pg.admit(t, e.id, p)
		}
		pg.segFiles[e.file] = e.bytes
		diskTotal += e.bytes
	}
	for name, o := range occs {
		t := db.tables[name]
		t.nslots = o.max + 1
		want := (t.nslots + pageMask) >> pageShift
		for len(t.pages) < want {
			t.pages = append(t.pages, atomic.Pointer[rowPage]{})
		}
		for len(t.disk) < want {
			t.disk = append(t.disk, pageDiskRec{})
		}
		// Pages with no segment were empty at the checkpoint.
		for id := range t.pages {
			if keep && t.pages[id].Load() == nil {
				p := &rowPage{}
				t.pages[id].Store(p)
				pg.admit(t, id, p)
			}
		}
		for s := 0; s < t.nslots; s++ {
			if o.bits[s/64]&(1<<(s%64)) == 0 {
				t.free = append(t.free, s)
			}
		}
	}
	pg.diskBytes.Store(diskTotal)
	db.sweepOrphanSegments()
	return walSeq, nil
}

// sweepOrphanSegments deletes segment files the manifest does not
// reference: leftovers of checkpoints that crashed before installing, or
// of deletions that crashed before completing.
func (db *DB) sweepOrphanSegments() {
	dents, err := db.fs.ReadDir(db.pager.dir)
	if err != nil {
		return
	}
	for _, de := range dents {
		name := de.Name()
		if _, ok := db.pager.segFiles[name]; ok {
			continue
		}
		if strings.HasPrefix(name, "seg-") {
			db.fs.Remove(filepath.Join(db.pager.dir, name))
		}
	}
}

// adoptStagedTable moves a table built on a scratch database (the staging
// copy ResetFromSnapshot decodes into) onto this database's cache: every
// materialized page is admitted, charged, and marked dirty so the next
// checkpoint persists it. Callers hold db.mu's write side.
func (db *DB) adoptStagedTable(t *Table) {
	t.pager = db.pager
	t.disk = make([]pageDiskRec, len(t.pages))
	for id := range t.pages {
		p := t.pages[id].Load()
		// Clear the staging cache's marks: this cache never counted them.
		p.dirty = false
		p.hot.Store(false)
		p.ref.Store(0)
		db.pager.admit(t, id, p)
		p.dirty = true
	}
}

//
// Background checkpointer
//

// startCheckpointLoop launches the background auto-checkpoint goroutine
// for a durable database. The WAL-size probe on the commit path only kicks
// this loop (a non-blocking channel send); the segment writing happens
// here, off every commit path.
func (db *DB) startCheckpointLoop() {
	db.ckptKick = make(chan struct{}, 1)
	db.ckptStop = make(chan struct{})
	db.ckptWG.Add(1)
	go func() {
		defer db.ckptWG.Done()
		for {
			select {
			case <-db.ckptStop:
				return
			case <-db.ckptKick:
				// A failed background checkpoint leaves the WAL growing but
				// durability intact; record the error for the operator
				// (LastCheckpointError) and keep serving kicks.
				if cerr := db.Checkpoint(); cerr != nil {
					db.ckptBgErr.Store(ckptErrBox{cerr})
				}
			}
		}
	}()
}

// stopCheckpointLoop terminates the background checkpointer and waits for
// any in-flight checkpoint to finish. Must be called without db.mu held.
func (db *DB) stopCheckpointLoop() {
	db.ckptOnce.Do(func() {
		if db.ckptStop != nil {
			close(db.ckptStop)
			db.ckptWG.Wait()
		}
	})
}

// ckptErrBox wraps a background-checkpoint error for atomic.Value (whose
// stored concrete type must never change).
type ckptErrBox struct{ err error }

// LastCheckpointError returns the most recent background-checkpoint
// failure, or nil. Background checkpoints run off every commit path, so
// their errors cannot surface through a statement; operators poll this.
func (db *DB) LastCheckpointError() error {
	if b, ok := db.ckptBgErr.Load().(ckptErrBox); ok {
		return b.err
	}
	return nil
}
