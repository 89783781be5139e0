package sqldb

// The write path. Every INSERT, UPDATE and DELETE stages its rows into a
// transaction's write set, reading the table as that transaction sees it
// (access.iterate); no shared table changes until applyLocked installs a
// write set under db.mu's write side. A transactional statement stages
// under the read side, claims its row slots first-writer-wins and applies
// at COMMIT. An autocommit statement is a one-statement transaction: it
// stages under the write side, claims nothing, and applies at once. Both
// end in DB.commit, which turns what was applied into one WAL frame.

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sqlparser"
)

// txnTable is one transaction's write set for one table: replacements and
// tombstones for committed slots, plus the rows it inserted.
type txnTable struct {
	t    *Table
	mods map[int]*txnRow // committed slot -> replacement (or tombstone)
	ins  []*txnRow       // pending inserts, in statement order
	// moved indexes the live replacements by the columns they change:
	// column position -> committed slots whose replacement differs there
	// from the committed row. An index path over that column cannot find
	// them, so access.iterate visits them after the committed rows.
	moved map[int]map[int]struct{}
}

// txnRow is one buffered row version.
type txnRow struct {
	row     []Value
	deleted bool
}

func (tt *txnTable) empty() bool { return len(tt.mods) == 0 && len(tt.ins) == 0 }

// setMod records m as slot's replacement in tt; base is the committed row
// (unused for a tombstone). A one-statement transaction never reads its
// write set back, so it keeps no moved index.
func (txn *Txn) setMod(tt *txnTable, slot int, base []Value, m *txnRow) {
	if tt.mods == nil {
		tt.mods = make(map[int]*txnRow)
	}
	tt.mods[slot] = m
	if txn.oneShot {
		return
	}
	if m.deleted {
		for _, set := range tt.moved {
			delete(set, slot)
		}
		return
	}
	for pos := range base {
		if equalValue(base[pos], m.row[pos]) {
			delete(tt.moved[pos], slot)
			continue
		}
		if tt.moved == nil {
			tt.moved = make(map[int]map[int]struct{})
		}
		set := tt.moved[pos]
		if set == nil {
			set = make(map[int]struct{})
			tt.moved[pos] = set
		}
		set[slot] = struct{}{}
	}
}

// movedAt reports whether slot's replacement changes column pos.
func (tt *txnTable) movedAt(pos, slot int) bool {
	_, ok := tt.moved[pos][slot]
	return ok
}

// movedSlots lists, in slot order, the committed slots whose replacement
// changes column pos.
func (tt *txnTable) movedSlots(pos int) []int {
	set := tt.moved[pos]
	if len(set) == 0 {
		return nil
	}
	slots := make([]int, 0, len(set))
	for slot := range set {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

// writeSet returns txn's write set for t when it holds a write, else nil
// (also for a nil txn). A write set applies only to the Table it was staged
// against, never to a later table of the same name.
func (txn *Txn) writeSet(t *Table) *txnTable {
	if txn == nil {
		return nil
	}
	for _, tt := range txn.tables {
		if tt.t == t && !tt.empty() {
			return tt
		}
	}
	return nil
}

// writes reports whether txn holds a write for a table named name.
func (txn *Txn) writes(name string) bool {
	for _, tt := range txn.tables {
		if tt.t.Name == name && !tt.empty() {
			return true
		}
	}
	return false
}

// table returns (creating if needed) txn's write set for t.
func (txn *Txn) table(t *Table) *txnTable {
	for _, tt := range txn.tables {
		if tt.t == t {
			return tt
		}
	}
	tt := &txnTable{t: t}
	txn.tables = append(txn.tables, tt)
	return tt
}

//
// Staging. Callers hold db.mu: the write side for a one-statement
// transaction, the read side otherwise. Each statement is atomic: it either
// stages every row or leaves the write set and the lock table as they were.
//

// stageWrite stages one INSERT, UPDATE or DELETE into txn's write set.
func (txn *Txn) stageWrite(st sqlparser.Statement, params []Value) (*Result, error) {
	switch s := st.(type) {
	case *sqlparser.InsertStmt:
		return txn.stageInsert(s, params)
	case *sqlparser.UpdateStmt:
		return txn.stageUpdate(s, params)
	case *sqlparser.DeleteStmt:
		return txn.stageDelete(s, params)
	}
	return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
}

func (txn *Txn) stageInsert(s *sqlparser.InsertStmt, params []Value) (*Result, error) {
	db := txn.db
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	positions, err := insertPositions(t, s)
	if err != nil {
		return nil, err
	}
	// VALUES lower against an empty scope, so a column reference there is
	// an error; every row lowers before any is evaluated.
	c := &exprCompiler{db: db, sc: &scope{}}
	vals := make([]compiledExpr, 0, len(s.Rows)*len(positions))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprRow), len(positions))
		}
		for _, e := range exprRow {
			ce, err := c.compile(e)
			if err != nil {
				return nil, err
			}
			vals = append(vals, ce)
		}
	}
	tt := txn.table(t)
	probes := tt.uniqueProbes()
	ev := &execEnv{params: params}
	staged := make([]*txnRow, 0, len(s.Rows))
	for r := range s.Rows {
		row := make([]Value, len(t.Cols))
		for i := range row {
			row[i] = Null()
		}
		for i, pos := range positions {
			v, err := vals[r*len(positions)+i](ev)
			if err != nil {
				return nil, err
			}
			row[pos] = v
		}
		for _, p := range probes {
			if err := p.claim(tt, row); err != nil {
				return nil, err
			}
		}
		staged = append(staged, &txnRow{row: row})
	}
	tt.ins = append(tt.ins, staged...)
	return &Result{Affected: len(staged)}, nil
}

// uniqueProbe pre-checks one INSERT's rows against a UNIQUE index as the
// transaction sees the table. The authoritative check is applyLocked's,
// against the state the write set is applied to.
type uniqueProbe struct {
	idx *hashIndex
	// held is the keys the committed index cannot show: those of moved
	// replacements, of live pending inserts, and of this statement's rows.
	held map[string]struct{}
}

func (tt *txnTable) uniqueProbes() []uniqueProbe {
	var out []uniqueProbe
	for _, idx := range tt.t.indexes {
		if !idx.unique {
			continue
		}
		held := make(map[string]struct{})
		for slot := range tt.moved[idx.pos] {
			held[tt.mods[slot].row[idx.pos].Key()] = struct{}{}
		}
		for _, tr := range tt.ins {
			if !tr.deleted {
				held[tr.row[idx.pos].Key()] = struct{}{}
			}
		}
		out = append(out, uniqueProbe{idx: idx, held: held})
	}
	return out
}

// claim fails if a live row of the view already holds row's key, and
// otherwise holds it for the rest of the statement.
func (p uniqueProbe) claim(tt *txnTable, row []Value) error {
	key := row[p.idx.pos].Key()
	_, taken := p.held[key]
	for _, slot := range p.idx.m[key] {
		if taken {
			break
		}
		// A committed row holds key unless the write set deleted it or
		// moved it off the key (then held has its new key).
		m := tt.mods[slot]
		taken = m == nil || (!m.deleted && !tt.movedAt(p.idx.pos, slot))
	}
	if taken {
		return fmt.Errorf("sqldb: unique index violation on %s.%s", tt.t.Name, p.idx.column)
	}
	p.held[key] = struct{}{}
	return nil
}

func (txn *Txn) stageUpdate(s *sqlparser.UpdateStmt, params []Value) (*Result, error) {
	db := txn.db
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	sc := &scope{}
	sc.addTxnTable("", t, txn)
	c := &exprCompiler{db: db, sc: sc}
	type assignment struct {
		pos int
		val compiledExpr
	}
	sets := make([]assignment, len(s.Assignments))
	for i, a := range s.Assignments {
		pos := t.ColumnIndex(a.Column)
		if pos < 0 {
			return nil, fmt.Errorf("sqldb: no column %s.%s", s.Table, a.Column)
		}
		val, err := c.compile(a.Value)
		if err != nil {
			return nil, err
		}
		sets[i] = assignment{pos: pos, val: val}
	}
	ev := oneTableEnv(params)
	matched, err := db.matchRows(c, ev, s.Where)
	if err != nil {
		return nil, err
	}
	// Evaluate every new row, and read every committed one, before changing
	// anything. Assignments read the pre-update row, so `a = b, b = a` swaps.
	nslots := t.nslots
	type staged struct{ base, row []Value }
	rows := make([]staged, len(matched))
	for i, m := range matched {
		ev.tup[0] = m.row
		newRow := append([]Value(nil), m.row...)
		for _, set := range sets {
			v, err := set.val(ev)
			if err != nil {
				return nil, err
			}
			newRow[set.pos] = v
		}
		rows[i].row = newRow
		if rows[i].base, err = t.rowAt(m.slot); err != nil {
			return nil, err
		}
	}
	if err := txn.lockSlots(t, matched); err != nil {
		return nil, err
	}
	tt := txn.table(t)
	for i, m := range matched {
		if m.slot >= nslots {
			tt.ins[m.slot-nslots].row = rows[i].row
			continue
		}
		txn.setMod(tt, m.slot, rows[i].base, &txnRow{row: rows[i].row})
	}
	return &Result{Affected: len(matched)}, nil
}

func (txn *Txn) stageDelete(s *sqlparser.DeleteStmt, params []Value) (*Result, error) {
	db := txn.db
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	sc := &scope{}
	sc.addTxnTable("", t, txn)
	matched, err := db.matchRows(&exprCompiler{db: db, sc: sc}, oneTableEnv(params), s.Where)
	if err != nil {
		return nil, err
	}
	if err := txn.lockSlots(t, matched); err != nil {
		return nil, err
	}
	tt := txn.table(t)
	nslots := t.nslots
	for _, m := range matched {
		if m.slot >= nslots {
			tt.ins[m.slot-nslots].deleted = true
			continue
		}
		txn.setMod(tt, m.slot, nil, &txnRow{deleted: true})
	}
	return &Result{Affected: len(matched)}, nil
}

// matchedRow is one row a write statement's WHERE selected: its slot (a
// committed slot, or nslots+i for pending insert i) and the row as the
// transaction sees it.
type matchedRow struct {
	slot int
	row  []Value
}

// oneTableEnv returns an environment for a one-table scope. The tuple
// shares the environment's allocation: a write statement pays for one, not
// two.
func oneTableEnv(params []Value) *execEnv {
	e := &struct {
		ev  execEnv
		tup [1][]Value
	}{}
	e.ev = execEnv{tup: e.tup[:], params: params}
	return &e.ev
}

// matchRows returns the rows of c's one-table scope that satisfy where,
// planned through the same access paths as SELECT. where lowers through c
// before any row is read; each row is evaluated in ev, whose one-entry
// tuple it overwrites.
func (db *DB) matchRows(c *exprCompiler, ev *execEnv, where sqlparser.Expr) ([]matchedRow, error) {
	var pred compiledExpr
	if where != nil {
		var err error
		if pred, err = c.compile(where); err != nil {
			return nil, err
		}
	}
	t := c.sc.tabs[0].t
	acc := db.bestAccess(t, c.sc, 0, conjuncts(where), ev.params)
	db.countAccess(acc)
	var out []matchedRow
	err := acc.iterate(t, func(slot int, row []Value) error {
		if pred != nil {
			ev.tup[0] = row
			v, err := pred(ev)
			if err != nil || !v.Truthy() {
				return err
			}
		}
		out = append(out, matchedRow{slot: slot, row: row})
		return nil
	})
	return out, err
}

// lockSlots claims the committed slots among rows for txn, first writer
// wins. On conflict it releases the locks this call acquired and returns a
// WriteConflictError; locks held from earlier statements stay held. A
// one-statement transaction claims nothing: it stages and applies under
// db.mu's write side, which no transactional claimant can hold meanwhile,
// so it only checks that no open transaction owns a slot.
func (txn *Txn) lockSlots(t *Table, rows []matchedRow) error {
	db := txn.db
	if txn.oneShot && len(db.openTxns) == 0 {
		return nil
	}
	nslots := t.nslots
	var acquired []int
	for _, r := range rows {
		if r.slot >= nslots {
			continue // a pending insert: private to txn
		}
		if txn.oneShot {
			if db.locks.owner(t, r.slot) != nil {
				return &WriteConflictError{Table: t.Name, Slot: r.slot}
			}
			continue
		}
		ok, fresh := db.locks.tryLock(t, r.slot, txn)
		if !ok {
			for _, s := range acquired {
				db.locks.unlock(t, s, txn)
			}
			return &WriteConflictError{Table: t.Name, Slot: r.slot}
		}
		if fresh {
			acquired = append(acquired, r.slot)
		}
	}
	return nil
}

//
// Apply and commit
//

// applyLocked installs the write set into the shared tables and returns the
// encoded redo ops, in a deterministic order (tables sorted by name; deletes,
// then modifications, then inserts, each in slot order — so a transaction
// that deletes a unique key and re-inserts it commits cleanly). On a
// constraint violation everything already applied is undone and an error
// returned; the shared state is then exactly as before. A page fault
// midway is not reverted (reverting may fault again): the ops returned
// with it hold the redo of what was applied, for DB.commit to log. Callers
// hold db.mu's write side.
func (txn *Txn) applyLocked() ([]byte, error) {
	type undoRec struct {
		kind int // 0 = re-place deleted row, 1 = revert cell, 2 = remove inserted row
		t    *Table
		slot int
		pos  int
		row  []Value
		old  Value
	}
	var undo []undoRec
	// revert undoes what was applied. Every page it touches was written
	// by this apply and is dirty, so resident: it cannot fault.
	revert := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			u := undo[i]
			switch u.kind {
			case 0:
				_ = u.t.placeRow(u.slot, u.row) // the slot was just freed
			case 1:
				_ = u.t.updateCellUnchecked(u.slot, u.pos, u.old)
			case 2:
				_, _ = u.t.deleteRow(u.slot)
			}
		}
	}
	logged := txn.db.wal != nil
	var ops []byte

	slices.SortFunc(txn.tables, func(a, b *txnTable) int { return cmp.Compare(a.t.Name, b.t.Name) })
	for _, tt := range txn.tables {
		if tt.empty() {
			continue // touched but nothing buffered (zero-row statements)
		}
		t := tt.t
		if txn.db.tables[t.Name] != t {
			revert()
			return nil, fmt.Errorf("sqldb: table %s was dropped during the transaction", t.Name)
		}
		slots := make([]int, 0, len(tt.mods))
		for slot := range tt.mods {
			slots = append(slots, slot)
		}
		sort.Ints(slots)
		for _, slot := range slots {
			if !tt.mods[slot].deleted {
				continue
			}
			row, err := t.deleteRow(slot)
			if err != nil {
				return ops, err
			}
			if row != nil {
				undo = append(undo, undoRec{kind: 0, t: t, slot: slot, row: row})
				if logged {
					ops = appendDeleteOp(ops, t.Name, slot)
				}
			}
		}
		for _, slot := range slots {
			m := tt.mods[slot]
			if m.deleted {
				continue
			}
			row, err := t.rowAt(slot)
			if err != nil {
				return ops, err
			}
			for pos := range m.row {
				old := row[pos]
				if equalValue(old, m.row[pos]) {
					continue
				}
				if err := t.checkUpdateUnique(slot, pos, m.row[pos]); err != nil {
					revert()
					return nil, err
				}
				if err := t.updateCellUnchecked(slot, pos, m.row[pos]); err != nil {
					return ops, err
				}
				undo = append(undo, undoRec{kind: 1, t: t, slot: slot, pos: pos, old: old})
				if logged {
					ops = appendUpdateOp(ops, t.Name, slot, pos, m.row[pos])
				}
			}
		}
		for _, tr := range tt.ins {
			if tr.deleted {
				continue
			}
			if err := t.checkInsertUnique(tr.row); err != nil {
				revert()
				return nil, err
			}
			slot, err := t.insertRow(tr.row)
			if err != nil {
				return ops, err
			}
			undo = append(undo, undoRec{kind: 2, t: t, slot: slot})
			if logged {
				ops = appendInsertOp(ops, t.Name, slot, tr.row)
			}
		}
	}
	return ops, nil
}

// commit ends a write under db.mu's write side, which it takes and
// releases. apply changes the shared tables and returns the redo ops of
// what it changed; release, if set, runs under the lock afterwards either
// way. On success the ops and meta become one WAL frame, staged into the
// group-commit cohort while the lock is still held (so the log stays in
// dependency order) and made durable after releasing it, sharing the fsync
// with concurrent committers. A failed apply changed nothing — except one a
// page fault stopped midway, whose applied effects cannot be cleanly
// reverted (reverting may fault again): their redo is committed and the
// fault returned, so the log tracks memory.
func (db *DB) commit(meta []byte, apply func() ([]byte, error), release func()) error {
	if db.wal != nil {
		// Announce before taking the lock, so a flushing leader holds its
		// cohort open for this frame.
		db.wal.announce()
		defer db.wal.retire()
	}
	db.mu.Lock()
	ops, err := apply()
	if err == nil && meta != nil {
		if db.wal != nil {
			ops = appendMetaOp(ops, meta)
		}
		db.meta = append([]byte(nil), meta...)
		db.metaVer.Add(1)
	}
	if _, faulted := err.(*PageFaultError); err != nil && !faulted {
		ops = nil
	}
	var cohort *walCohort
	if db.wal != nil && len(ops) > 0 {
		db.walSeq++
		cohort = db.wal.enqueue(db.walSeq, ops)
	}
	if release != nil {
		release()
	}
	db.mu.Unlock()
	if cohort == nil {
		return err
	}
	if werr := db.wal.waitFlush(cohort); werr != nil {
		// The in-memory state already changed; surface the durability
		// failure rather than pretending the write is safe.
		return &DurabilityError{Err: werr}
	}
	if err == nil {
		db.maybeAutoCheckpoint()
		db.cachePressure()
	}
	return err
}

// autocommitWrite runs one INSERT, UPDATE or DELETE as a one-statement
// transaction: it stages into a fresh write set and applies it at once,
// both under db.mu's write side. A page fault while staging leaves nothing
// applied.
func (db *DB) autocommitWrite(st sqlparser.Statement, meta []byte, params []Value) (*Result, error) {
	txn := &Txn{db: db, oneShot: true}
	var res *Result
	err := db.commit(meta, func() ([]byte, error) {
		r, err := txn.stageWrite(st, params)
		if err != nil {
			return nil, err
		}
		ops, err := txn.applyLocked()
		if err == nil {
			res = r
		}
		return ops, err
	}, nil)
	return res, err
}

// autocommitDDL runs one DDL statement under db.mu's write side. DDL
// changes the schema in place; its redo ops accumulate in db.stmtBuf.
func (db *DB) autocommitDDL(meta []byte, fn func() (*Result, error)) (*Result, error) {
	var res *Result
	err := db.commit(meta, func() (ops []byte, err error) {
		db.stmtBuf = db.stmtBuf[:0]
		res, err = fn()
		return db.stmtBuf, err
	}, nil)
	return res, err
}

// equalValue compares two values for exact (non-coercing) equality.
func equalValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.I == b.I
	case KindText:
		return a.S == b.S
	case KindBlob:
		return bytes.Equal(a.B, b.B)
	}
	return true
}

// insertPositions maps an INSERT's column list (or the full schema) to
// column positions.
func insertPositions(t *Table, s *sqlparser.InsertStmt) ([]int, error) {
	if len(s.Columns) == 0 {
		positions := make([]int, len(t.Cols))
		for i := range t.Cols {
			positions[i] = i
		}
		return positions, nil
	}
	positions := make([]int, len(s.Columns))
	for i, name := range s.Columns {
		pos := t.ColumnIndex(name)
		if pos < 0 {
			return nil, fmt.Errorf("sqldb: no column %s.%s", t.Name, name)
		}
		positions[i] = pos
	}
	return positions, nil
}
