package sqldb

// Prepared parts: one database's share of a write that spans databases (a
// sharded store's shards), committed presumed-abort inside one process
// (Mohan, Lindsay & Obermarck, "R*", ACM TODS 1986). The store stages the
// write on every database, prepares each part but the last (Session.
// Prepare), commits the last as an ordinary batch that also records the
// decision (Session.CommitDeciding), then publishes the prepared parts
// (Prepared.Resolve). A crash before the decision is durable leaves
// prepared parts with no decision: the store's Open drops them (presumed
// abort). After it, Open publishes them.
//
// A prepared part is one WAL batch holding a prepare record: the id and
// the part's redo ops, nested. It is logged and synced before the decision
// is written, but nothing of it is applied: Prepare applies the write set
// to compute the redo (slots, UNIQUE checks, DDL checks against the
// applied rows), reverts it at once, and keeps db.mu's write side until the
// outcome. Holding the lock is what makes publication infallible: no
// committer can take a slot, a UNIQUE key or a table the part relies on,
// and no reader, checkpoint or snapshot sees the database in between. The
// outcome is a batch of one resolve record; publishing applies the nested
// ops through applyOp, as replay does, so every row lands in the slot the
// redo names at runtime and after a crash alike.
//
// Until its outcome a part is held in db.pending: replay puts it there, a
// checkpoint's manifest and a snapshot stream carry it, and a replicated
// resolve record publishes it on a follower, which never decides. The
// decision is a decide record in the last database's batch; the database
// keeps the id in db.decided, and checkpoints carry it, until the store
// calls Forget once every part is published.

import (
	"fmt"
	"slices"
)

// Prepared is a prepared part awaiting its outcome. Its database's write
// lock is held from Prepare until Resolve.
type Prepared struct {
	db  *DB
	txn *Txn
	id  uint64
}

// Writes reports whether the session's open transaction holds a row write
// or DDL: whether it takes part in a commit.
func (s *Session) Writes() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return false
	}
	return len(s.txn.ddl) > 0 || slices.ContainsFunc(s.txn.tables, func(tt *txnTable) bool { return !tt.empty() })
}

// Prepare ends the session's transaction as the part of a write, prepared
// under id. It checks the write set and DDL as COMMIT would, logs the redo
// as a prepared batch and waits until the batch is durable, applying
// nothing. It returns holding db.mu's write side, which Resolve releases.
// On an error the transaction is rolled back and nothing is held.
func (s *Session) Prepare(id uint64) (*Prepared, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	txn := s.txn
	if txn == nil {
		return nil, fmt.Errorf("sqldb: PREPARE outside a transaction")
	}
	s.txn = nil
	db := s.db
	if db.wal != nil {
		db.wal.announce()
		defer db.wal.retire()
	}
	db.mu.Lock()
	part, err := txn.apply(true)
	if err == nil {
		db.pending[id] = part
		if db.wal != nil {
			db.walSeq++
			c := db.wal.enqueue(db.walSeq, appendPrepareOp(nil, id, part))
			//cryptdb:vet-ok lockorder: a prepared part holds db.mu until its outcome; the write lock is what keeps its slots, keys and tables for publication
			if werr := db.wal.waitFlush(c); werr != nil {
				delete(db.pending, id)
				err = fmt.Errorf("sqldb: prepared batch not durable: %w", werr)
			}
		}
	}
	if err != nil {
		txn.releaseLocked()
		db.mu.Unlock()
		return nil, fmt.Errorf("sqldb: PREPARE failed, transaction rolled back: %w", err)
	}
	return &Prepared{db: db, txn: txn, id: id}, nil
}

// Resolve logs the part's outcome and ends it: with commit, its redo
// applies to the shared tables; without, it is dropped. It releases the
// write lock Prepare took. Only an I/O failure can fail a publication: a
// page the redo reads that faults (the outcome is logged all the same, so a
// reopen publishes the rest), or the outcome's WAL write (a
// *DurabilityError).
func (p *Prepared) Resolve(commit bool) error {
	db := p.db
	if db.wal != nil {
		db.wal.announce()
		defer db.wal.retire()
	}
	return db.logOutcome(p.id, commit, p.txn.releaseLocked)
}

// Resolve logs the outcome of the part prepared under id that recovery
// left unresolved, and publishes (commit) or drops it.
func (db *DB) Resolve(id uint64, commit bool) error {
	if db.wal != nil {
		db.wal.announce()
		defer db.wal.retire()
	}
	db.mu.Lock()
	return db.logOutcome(id, commit, nil)
}

// logOutcome resolves id and logs its resolve record, releasing db.mu,
// which the caller holds. The record is logged whether or not publication
// failed: the write is decided either way.
func (db *DB) logOutcome(id uint64, commit bool, release func()) error {
	var perr error
	err := db.finish(nil, func() ([]byte, error) {
		perr = db.resolveLocked(id, commit)
		return appendResolveOp(nil, id, commit), nil
	}, release)
	if perr != nil {
		return perr
	}
	return err
}

// resolveLocked publishes (commit) or drops the part prepared under id.
// Callers hold db.mu's write side.
func (db *DB) resolveLocked(id uint64, commit bool) error {
	part, ok := db.pending[id]
	if !ok {
		return fmt.Errorf("sqldb: no prepared part %d", id)
	}
	delete(db.pending, id)
	if !commit {
		return nil
	}
	ops, err := decodeOps(part)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := db.applyOp(op); err != nil {
			return fmt.Errorf("sqldb: publishing part %d: %w", id, err)
		}
	}
	return nil
}

// CommitDeciding commits the session's transaction, with the metadata
// blob, as the decision of the write whose other parts were prepared under
// id: its batch carries a decide record, and the database keeps id, through
// checkpoints, until Forget. With id 0 it is an ordinary COMMIT.
func (s *Session) CommitDeciding(id uint64, meta []byte) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn != nil {
		s.txn.decides = id
		s.txn.attachMeta(meta, nil)
	}
	return s.commitLocked()
}

// Forget drops the decision recorded under id, once every part it decides
// is published and its outcome durable.
func (db *DB) Forget(id uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.decided, id)
}

// Unresolved lists, in order, the ids of the parts recovery left prepared
// and unresolved.
func (db *DB) Unresolved() []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedIDs(db.pending)
}

// Decided lists, in order, the ids of the decisions this database holds.
func (db *DB) Decided() []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return sortedIDs(db.decided)
}

func sortedIDs[V any](m map[uint64]V) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// appendHeldOps appends a prepare record for every pending part, then,
// when decisions is set, a decide record for every decision held: what a
// manifest must carry (decisions too) and a snapshot stream (parts alone).
// Callers hold db.mu.
func (db *DB) appendHeldOps(ops []byte, decisions bool) []byte {
	for _, id := range sortedIDs(db.pending) {
		ops = appendPrepareOp(ops, id, db.pending[id])
	}
	if decisions {
		for _, id := range sortedIDs(db.decided) {
			ops = appendDecideOp(ops, id)
		}
	}
	return ops
}

// recoverOp applies one op recovery reads from the manifest or the WAL,
// noting a decision.
func (db *DB) recoverOp(op walOp) error {
	if op.kind == walOpDecide {
		db.decided[op.id] = struct{}{}
	}
	return db.applyOp(op)
}
