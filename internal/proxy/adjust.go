package proxy

import (
	"fmt"
	"slices"

	"repro/internal/crypto/joinadj"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// applyRequirements makes the onion adjustments a statement's build recorded
// (§3.2, step 2) in two steps. The refusals come first and read only
// metadata: an unsupported clause, a requirement the build found it cannot
// meet, and an open transaction that has written a table an adjustment
// would change each refuse the statement before anything moves. Then every
// adjustment commits at once (commit). A trainer (NewTrainer) commits each
// requirement on its own and logs one it cannot meet as a warning instead
// of refusing the statement.
func (p *Proxy) applyRequirements(an *analysis) error {
	if p.training {
		p.train(an)
		return nil
	}
	if err := an.refusal(); err != nil {
		return err
	}
	for _, r := range an.reqs {
		if r.refused != nil {
			return r.refused
		}
	}
	for _, r := range an.reqs {
		if !p.reqNeeded(r) {
			continue
		}
		for _, cm := range []*ColumnMeta{r.cm, r.joinWith} {
			if cm == nil {
				continue
			}
			if err := p.adjustBlocked(cm.Table); err != nil {
				return err
			}
		}
	}
	return p.commit(an.reqs)
}

// train meets a trainer's requirements one by one, logging each it cannot
// meet. Only a trainer records NeedsPlaintext (the §8.3 reporting flag): a
// live proxy refuses such a statement before it looks at its requirements.
func (p *Proxy) train(an *analysis) {
	for _, r := range an.reqs {
		err := r.refused
		if r.class == onion.ClassPlaintext {
			r.cm.NeedsPlaintext = true
		}
		if err == nil {
			err = p.commit([]requirement{r})
		}
		if err != nil {
			p.trainLog = append(p.trainLog, TrainEvent{
				Table: r.cm.Table.Logical, Column: r.cm.Logical, Warning: err.Error(),
			})
		}
	}
	for _, reason := range an.unsupported {
		p.trainLog = append(p.trainLog, TrainEvent{Warning: reason})
	}
}

// commit makes the adjustments that meet reqs in one transition.
func (p *Proxy) commit(reqs []requirement) error {
	err := p.transition(func(a *adjustment) error {
		for _, r := range reqs {
			a.column(r.cm)
			a.column(r.joinWith)
		}
		for _, r := range reqs {
			if err := a.meet(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("proxy: onion adjustment: %w", err)
	}
	return nil
}

// transition commits one statement's metadata changes with the server
// statements that make them true, as one commit: plan moves the metadata
// in memory (an onion adjustment, a CREATE or DROP, an index request, an
// OPE-JOIN declaration); the indexes a CREATE INDEX wants on the layers
// the plan exposed join it (index); the result is sealed once and written
// with one ExecAutonomousListWithMeta, one WAL batch per shard. The list
// holds first the whole-column rewrites (the first use of a deferred
// onion, the resync of a stale column, RaiseOnion), then the decrypt_rnd
// peels and join_adj re-keys in the order planned, then the DDL, which the
// store applies after the rows. The peels and re-keys carry the peeled
// layers' keys and the re-keying deltas: shipping them to the DBMS for an
// in-place re-encryption is the paper's adjustable-onion protocol (§3.1,
// §3.4), and neither reveals an inner layer's key or a column's join key.
// The list runs outside any client transaction, like the paper's
// separate-transaction adjustment (§3.2): a client ROLLBACK must not undo
// it, since the layer metadata moves with it. A plan that moves nothing
// commits nothing; with no statement the blob commits alone, and a proxy
// without a data directory seals none. A failed plan or list reverts every
// change, and a list that applied but failed to be durable
// (*sqldb.DurabilityError) keeps them all: memory and the would-have-been
// disk state moved together. Callers hold the write side of p.mu.
func (p *Proxy) transition(plan func(a *adjustment) error) error {
	if p.replica != nil {
		// The primary adjusts; the rows and the blob replicate down.
		return p.replicaReadOnly()
	}
	p.metaMu.Lock()
	defer p.metaMu.Unlock()
	a := &adjustment{p: p, byCol: make(map[*ColumnMeta]*rewrite)}
	err := plan(a)
	if err == nil && len(a.undo) == 0 {
		return nil
	}
	var stmts []sqlparser.Statement
	var sealed []byte
	if err == nil {
		for _, cm := range a.exposed {
			a.index(cm)
		}
		stmts, err = a.statements()
	}
	if err == nil {
		sealed, err = p.sealedMetaLocked()
	}
	if err == nil && (len(stmts) > 0 || sealed != nil) {
		_, err = p.db.ExecAutonomousListWithMeta(stmts, sealed)
	}
	if err != nil {
		if !stmtApplied(err) {
			a.revert()
		}
		return err
	}
	p.stats.onionAdjustments.Add(a.adjusted)
	p.stats.resyncs.Add(a.resynced)
	p.trainLog = append(p.trainLog, a.events...)
	return nil
}

// adjustment is one transition's metadata changes, planned in memory, and
// the server statements that make them true.
type adjustment struct {
	p        *Proxy
	rewrites []*rewrite // one per column named, in order; some write nothing
	byCol    map[*ColumnMeta]*rewrite
	updates  []sqlparser.Statement // peels and re-keys, in order
	ddl      []sqlparser.Statement // CREATE, DROP and index builds, in order
	undo     []func()
	exposed  []*ColumnMeta // columns whose wanted indexes may be buildable now
	events   []TrainEvent
	adjusted int64
	resynced int64
}

// onionAt is an onion of a column at a given layer and, for JAdj, join key.
type onionAt struct {
	o     onion.Onion
	layer onion.Layer
	key   *joinadj.Key
}

// rewrite is one column's whole-column rewrite: it writes onions, each at
// the layer and join key given, from each row's Eq plaintext under the
// row's IV; or, once resync marks the column stale, a fresh IV and every
// onion of stale first, from the row's Add plaintext (the §3.3 resync after
// HOM increments).
type rewrite struct {
	cm     *ColumnMeta
	eqRND  bool      // the Eq onion's layer before the statement is RND
	stale  []onionAt // for a stale column, its present onions but Add
	resync bool
	onions []onionAt
}

// column returns cm's rewrite, made on first sight from cm's state then.
// It must be made before the statement moves anything of cm: the rewrite
// reads the rows as the server holds them before the statement, and the
// statement's peels and re-keys follow it in the batch.
func (a *adjustment) column(cm *ColumnMeta) *rewrite {
	if cm == nil || a.byCol[cm] != nil {
		return a.byCol[cm]
	}
	rw := &rewrite{cm: cm}
	if st := cm.Onions[onion.Eq]; st != nil {
		rw.eqRND = st.Current() == onion.RND
	}
	if cm.Stale[onion.Eq] {
		for _, o := range cm.onionList() {
			if o != onion.Add {
				rw.stale = append(rw.stale, a.at(cm, o))
			}
		}
	}
	a.byCol[cm] = rw
	a.rewrites = append(a.rewrites, rw)
	return rw
}

// at is onion o of cm at its current layer and join key.
func (a *adjustment) at(cm *ColumnMeta, o onion.Onion) onionAt {
	at := onionAt{o: o, layer: cm.Onions[o].Current()}
	if o == onion.JAdj {
		at.key = a.p.joinKey(cm)
	}
	return at
}

// setTo sets *ptr to v in memory and records the undo. The caller holds
// the write side of p.mu, so no statement reads metadata meanwhile.
func setTo[T any](a *adjustment, ptr *T, v T) {
	old := *ptr
	*ptr = v
	a.onUndo(func() { *ptr = old })
}

// onUndo records the undo of a change made in memory.
func (a *adjustment) onUndo(undo func()) { a.undo = append(a.undo, undo) }

// revert undoes every change, last first.
func (a *adjustment) revert() {
	for i := len(a.undo) - 1; i >= 0; i-- {
		a.undo[i]()
	}
}

// meet plans the adjustments one requirement needs. Its refusals were
// decided before (requirement.refused, adjustBlocked).
func (a *adjustment) meet(r requirement) error {
	switch r.class {
	case onion.ClassEquality:
		a.resync(r.cm)
		return a.lower(r.cm, onion.Eq, onion.DET)
	case onion.ClassOrder:
		a.resync(r.cm)
		return a.lower(r.cm, onion.Ord, onion.OPE)
	case onion.ClassSearch:
		// The Search onion starts (and stays) at SEARCH; nothing to strip.
		a.use(r.cm, onion.Search, &r.cm.UsedSearch)
		return nil
	case onion.ClassSum, onion.ClassIncrement:
		a.use(r.cm, onion.Add, &r.cm.UsedSum)
		return nil
	case onion.ClassJoin:
		a.resync(r.cm)
		a.resync(r.joinWith)
		return a.join(r.cm, r.joinWith)
	case onion.ClassRangeJoin:
		// A declared OPE-JOIN pair shares one OPE key: expose both at OPE.
		if err := a.lower(r.cm, onion.Ord, onion.OPE); err != nil {
			return err
		}
		return a.lower(r.joinWith, onion.Ord, onion.OPE)
	}
	return fmt.Errorf("proxy: unknown computation class %v", r.class)
}

// use serves the single-layer onions (Add, Search), which have nothing to
// strip: the first requirement on one fills it if it was deferred, and
// records the usage flag of the §8.3 analysis.
func (a *adjustment) use(cm *ColumnMeta, o onion.Onion, used *bool) {
	if st := cm.Onions[o]; st != nil && st.Deferred {
		a.fill(cm, o, st)
	}
	if !*used {
		setTo(a, used, true)
	}
}

// lower brings onion o of cm down to layer target (§3.2). A present onion
// is peeled by one server-side DECRYPT_RND UPDATE per layer. A deferred one
// holds no ciphertexts to peel: it descends in memory and is filled at
// target, so the server never holds it at a layer above the one the
// statement needs.
func (a *adjustment) lower(cm *ColumnMeta, o onion.Onion, target onion.Layer) error {
	st := cm.Onions[o]
	if st == nil || st.AtOrBelow(target) {
		return nil
	}
	layers, err := st.LayersAbove(target)
	if err != nil {
		return err
	}
	setTo(a, &st.Cur, st.Cur+len(layers))
	if st.Deferred {
		a.fill(cm, o, st)
	} else {
		key := a.p.colKey(cm, o, onion.RND)
		for range layers {
			a.updates = append(a.updates, &sqlparser.UpdateStmt{
				Table: cm.Table.Anon,
				Assignments: []sqlparser.Assignment{{
					Column: cm.onionCol(o),
					Value: &sqlparser.FuncCall{Name: "decrypt_rnd", Args: []sqlparser.Expr{
						&sqlparser.BytesLit{V: key},
						&sqlparser.ColRef{Column: cm.onionCol(o)},
						&sqlparser.ColRef{Column: cm.ivCol()},
					}},
				}},
			})
		}
	}
	a.adjusted += int64(len(layers))
	if a.p.training {
		a.events = append(a.events, TrainEvent{
			Table: cm.Table.Logical, Column: cm.Logical, Onion: o, Layer: target,
		})
	}
	a.exposed = append(a.exposed, cm)
	return nil
}

// fill materialises deferred onion o of cm at its current layer and join
// key: the first statement whose requirement names it pays, once and for
// the whole column, what every INSERT would otherwise have paid for it.
// Writers hold the read side of p.mu for a whole statement and the caller
// the write side, so no row is inserted without the onion once the bit is
// clear; rows buffered in another session's open transaction would be,
// hence adjustBlocked.
func (a *adjustment) fill(cm *ColumnMeta, o onion.Onion, st *onion.State) {
	// The Eq onion is the source; after an increment the Add onion is.
	a.resync(cm)
	rw := a.column(cm)
	rw.onions = append(rw.onions, a.at(cm, o))
	setTo(a, &st.Deferred, false)
	a.adjusted++
}

// resync marks a stale column (HOM increments bypassed its other onions)
// for re-encryption from its Add onion: the two-query strategy of §3.3,
// applied lazily at column granularity. Deferred onions stay deferred.
func (a *adjustment) resync(cm *ColumnMeta) {
	if cm == nil || !cm.Stale[onion.Eq] {
		return
	}
	a.column(cm).resync = true
	setTo(a, &cm.Stale, make(map[onion.Onion]bool))
	a.resynced++
}

// join brings both columns' JAdj onions to the JOIN layer and re-keys them
// to a common join-base: the first column of the transitivity group in
// lexicographic (table, column) order (§3.4). The base is picked before
// either side is lowered, so a deferred side is filled under the base's key
// at once and needs no re-key.
func (a *adjustment) join(l, r *ColumnMeta) error {
	rl, rr := l.groupRoot(), r.groupRoot()
	base := rl
	if rl != rr && lexAfter(rl, rr) {
		base = rr
	}
	baseKey := a.p.joinKey(base)
	// rekey gives cm the base's effective key, named in the metadata by
	// reference to the base's key column, never by value.
	rekey := func(cm *ColumnMeta) {
		setTo(a, &cm.joinKey, baseKey)
		setTo(a, &cm.joinRefT, base.joinRefT)
		setTo(a, &cm.joinRefC, base.joinRefC)
	}
	for _, cm := range []*ColumnMeta{l, r} {
		if st := cm.Onions[onion.JAdj]; st != nil && st.Deferred {
			rekey(cm)
		}
		if err := a.lower(cm, onion.JAdj, onion.JOIN); err != nil {
			return err
		}
	}
	if a.p.training {
		a.events = append(a.events, TrainEvent{
			Table: r.Table.Logical, Column: r.Logical, Onion: onion.JAdj, Layer: onion.JOIN,
		})
	}
	// Re-key the queried columns that hold ciphertexts under another key.
	// Deltas are computed from each column's *current* effective key, so
	// columns merged into the group earlier converge lazily the next time
	// they are joined (the paper bounds total transitions by n(n-1)/2).
	for _, cm := range []*ColumnMeta{l, r} {
		delta, err := baseKey.Delta(a.p.joinKey(cm))
		if err != nil {
			return err
		}
		if delta.Cmp(bigOne) == 0 {
			continue // same key already
		}
		a.updates = append(a.updates, &sqlparser.UpdateStmt{
			Table: cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{
				Column: cm.onionCol(onion.JAdj),
				Value: &sqlparser.FuncCall{Name: "join_adj", Args: []sqlparser.Expr{
					&sqlparser.ColRef{Column: cm.onionCol(onion.JAdj)},
					&sqlparser.BytesLit{V: delta.Bytes()},
				}},
			}},
		})
		rekey(cm)
		a.adjusted++
		a.exposed = append(a.exposed, cm)
	}
	// Record the join in the group structure, with path compression for
	// the two joined columns (groupRoot itself never writes).
	for _, g := range []**ColumnMeta{&rl.joinGroup, &rr.joinGroup, &l.joinGroup, &r.joinGroup} {
		setTo(a, g, base)
	}
	return nil
}

func lexAfter(a, b *ColumnMeta) bool {
	if a.Table.Logical != b.Table.Logical {
		return a.Table.Logical > b.Table.Logical
	}
	return a.Logical > b.Logical
}

// statements builds the list: each column's rewrite as UPDATEs by rid,
// then the peels and re-keys, then the DDL. A rewrite reads every row of
// its column and holds them in memory, as the read returns them; its
// UPDATEs carry rids and ciphertexts only.
func (a *adjustment) statements() ([]sqlparser.Statement, error) {
	var stmts []sqlparser.Statement
	for _, rw := range a.rewrites {
		if !rw.resync && len(rw.onions) == 0 {
			continue
		}
		cm := rw.cm
		onions, read := rw.onions, []string{cm.onionCol(onion.Eq), cm.ivCol()}
		if rw.resync {
			onions, read = append(rw.stale, onions...), []string{cm.onionCol(onion.Add)}
		}
		sel := &sqlparser.SelectStmt{
			Exprs: []sqlparser.SelectExpr{{Expr: &sqlparser.ColRef{Column: "rid"}}},
			From:  []sqlparser.TableRef{{Table: cm.Table.Anon}},
		}
		for _, c := range read {
			sel.Exprs = append(sel.Exprs, sqlparser.SelectExpr{Expr: &sqlparser.ColRef{Column: c}})
		}
		res, err := a.p.db.Exec(sel)
		var rows []sqlparser.Statement
		if err == nil {
			rows, err = a.p.rewriteRows(rw, onions, res.Rows)
		}
		if err != nil {
			return nil, fmt.Errorf("rewriting %s.%s: %w", cm.Table.Logical, cm.Logical, err)
		}
		stmts = append(stmts, rows...)
	}
	return append(append(stmts, a.updates...), a.ddl...), nil
}

// rewriteRows returns the UPDATEs that write onions of rw's column into
// rows (rid, then the columns statements read): from the Eq plaintext under
// the row's IV, or, for a resync, the Add plaintext under a fresh IV written
// with them.
func (p *Proxy) rewriteRows(rw *rewrite, onions []onionAt, rows [][]sqldb.Value) ([]sqlparser.Statement, error) {
	cm := rw.cm
	// pts holds each row's plaintext and IV.
	pts, err := p.mapRows(rows, func(r []sqldb.Value) ([]sqldb.Value, error) {
		if rw.resync {
			pt, err := p.decryptAdd(cm, r[1])
			if err != nil {
				return nil, err
			}
			iv, err := newIV()
			return []sqldb.Value{pt, sqldb.Blob(iv)}, err
		}
		pt, err := p.decryptEq(cm, r[1], r[2], rw.eqRND)
		return []sqldb.Value{pt, r[2]}, err
	})
	if err != nil {
		return nil, err
	}
	if slices.ContainsFunc(onions, func(at onionAt) bool { return at.o == onion.Ord }) && !p.opts.DisableOPECache {
		// §3.1 batch optimization, as on a multi-row INSERT.
		ms := opePlaintexts(cm, len(pts), func(i int) sqldb.Value { return pts[i][0] })
		_, _ = p.opeCipher(cm).EncryptBatch(ms) // cache warmer; the per-row pass reports errors
	}
	out, err := p.mapRows(pts, func(r []sqldb.Value) ([]sqldb.Value, error) {
		if r[0].IsNull() && !rw.resync {
			return nil, nil // the column is NULL already
		}
		var out []sqldb.Value
		for _, at := range onions {
			ct, err := p.encryptOnion(cm, at, r[0], r[1].B)
			if err != nil {
				return nil, err
			}
			out = append(out, ct)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var stmts []sqlparser.Statement
	for i, vals := range out {
		if vals == nil {
			continue
		}
		upd := &sqlparser.UpdateStmt{Table: cm.Table.Anon, Where: &sqlparser.BinaryExpr{Op: "=",
			L: &sqlparser.ColRef{Column: "rid"}, R: &sqlparser.IntLit{V: rows[i][0].I}}}
		if rw.resync {
			upd.Assignments = append(upd.Assignments, sqlparser.Assignment{Column: cm.ivCol(), Value: valueToExpr(pts[i][1])})
		}
		for j, at := range onions {
			upd.Assignments = append(upd.Assignments, sqlparser.Assignment{Column: cm.onionCol(at.o), Value: valueToExpr(vals[j])})
		}
		stmts = append(stmts, upd)
	}
	return stmts, nil
}

// valueToExpr renders a sqldb value as a literal AST node for server
// queries.
func valueToExpr(v sqldb.Value) sqlparser.Expr {
	switch v.Kind {
	case sqldb.KindNull:
		return &sqlparser.NullLit{}
	case sqldb.KindInt:
		return &sqlparser.IntLit{V: v.I}
	case sqldb.KindText:
		return &sqlparser.StrLit{V: v.S}
	case sqldb.KindBlob:
		return &sqlparser.BytesLit{V: v.B}
	}
	return &sqlparser.NullLit{}
}
