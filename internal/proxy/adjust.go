package proxy

import (
	"fmt"

	"repro/internal/crypto/joinadj"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// applyRequirements performs every onion adjustment a query needs before it
// can execute (§3.2, step 2 of query processing). A trainer (NewTrainer)
// runs the same adjustments over its empty store, but logs a requirement it
// cannot meet as a warning instead of refusing the query.
func (p *Proxy) applyRequirements(an *analysis) error {
	if err := an.refusal(); err != nil && !p.training {
		return err
	}
	for _, req := range an.reqs {
		if err := p.applyRequirement(req); err != nil {
			if p.training {
				p.trainLog = append(p.trainLog, TrainEvent{
					Table: req.cm.Table.Logical, Column: req.cm.Logical,
					Warning: err.Error(),
				})
				continue
			}
			return err
		}
	}
	if p.training {
		for _, reason := range an.unsupported {
			p.trainLog = append(p.trainLog, TrainEvent{Warning: reason})
		}
	}
	return nil
}

func (p *Proxy) applyRequirement(req requirement) error {
	switch req.class {
	case onion.ClassNone:
		return nil
	case onion.ClassPlaintext:
		if !req.cm.NeedsPlaintext {
			req.cm.NeedsPlaintext = true
			p.persistMetaLocked() //nolint:errcheck // §8.3 reporting flag; the query fails below regardless
		}
		return fmt.Errorf("proxy: %s.%s requires plaintext computation",
			req.cm.Table.Logical, req.cm.Logical)
	case onion.ClassEquality:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		return p.lowerTo(req.cm, onion.Eq, onion.DET, nil)
	case onion.ClassOrder:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		return p.lowerTo(req.cm, onion.Ord, onion.OPE, nil)
	case onion.ClassSearch:
		// Search onion starts (and stays) at SEARCH; nothing to strip.
		return p.firstUse(req.cm, onion.Search, &req.cm.UsedSearch)
	case onion.ClassSum, onion.ClassIncrement:
		return p.firstUse(req.cm, onion.Add, &req.cm.UsedSum)
	case onion.ClassJoin:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		if err := p.maybeResync(req.joinWith); err != nil {
			return err
		}
		return p.adjustJoin(req.cm, req.joinWith)
	case onion.ClassRangeJoin:
		return p.adjustRangeJoin(req.cm, req.joinWith)
	}
	return fmt.Errorf("proxy: unknown computation class %v", req.class)
}

// firstUse serves the single-layer onions (Add, Search), which have nothing
// to strip: the first requirement on one materialises it if it was deferred
// and records the usage flag of the §8.3 analysis, in the same commit. The
// build that recorded the requirement has checked that the plan kept the
// onion.
func (p *Proxy) firstUse(cm *ColumnMeta, o onion.Onion, used *bool) error {
	if st := cm.Onions[o]; st != nil && st.Deferred {
		was := *used
		return p.materialise(cm, o, func() func() {
			*used = true
			return func() { *used = was }
		})
	}
	if !*used {
		*used = true
		return p.persistMetaLocked()
	}
	return nil
}

// lowerTo brings onion o of column cm down to layer target (§3.2). A no-op
// if already there. A present onion is peeled by server-side DECRYPT_RND
// UPDATEs, one layer per commit. A deferred onion holds no ciphertexts to
// peel: it descends in memory and is materialised once, at target, together
// with with (if non-nil: a join's choice of key), so the server never holds
// it at a layer above the one the statement needs.
func (p *Proxy) lowerTo(cm *ColumnMeta, o onion.Onion, target onion.Layer, with change) error {
	st := cm.Onions[o]
	if st == nil {
		return fmt.Errorf("proxy: %s.%s has no %s onion (type %s)",
			cm.Table.Logical, cm.Logical, o, cm.Type)
	}
	if st.AtOrBelow(target) {
		return nil
	}
	if err := cm.checkMinEnc(target); err != nil {
		return err
	}
	layers, err := st.LayersAbove(target)
	if err != nil {
		return err
	}
	for _, layer := range layers {
		if layer != onion.RND {
			return fmt.Errorf("proxy: cannot strip non-RND layer %s of %s onion", layer, o)
		}
	}
	if st.Deferred {
		from := st.Cur
		err := p.materialise(cm, o, func() func() {
			st.Cur += len(layers)
			undo := func() {}
			if with != nil {
				undo = with()
			}
			return func() { undo(); st.Cur = from }
		})
		if err != nil {
			return err
		}
		p.stats.onionAdjustments.Add(int64(len(layers)))
	} else if err := p.peel(cm, o, layers); err != nil {
		return err
	}
	if p.training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: cm.Table.Logical, Column: cm.Logical, Onion: o, Layer: target,
		})
	}
	return p.materializeIndexes(cm)
}

// peel strips RND layers off a present onion with server-side DECRYPT_RND
// UPDATEs, one commit per layer.
func (p *Proxy) peel(cm *ColumnMeta, o onion.Onion, layers []onion.Layer) error {
	// Onion decryption executes autonomously — the equivalent of the
	// paper's separate-transaction adjustment (§3.2): it must not be
	// undone by a client ROLLBACK, because the proxy's layer metadata
	// advances with it. Atomicity against concurrent clients comes from
	// the proxy's write lock (held here) plus the DBMS statement lock.
	// Atomicity against crashes comes from the WAL: the server-side
	// UPDATE and the sealed metadata snapshot recording the descended
	// layer commit in one batch, so recovery always sees a ciphertext
	// column and a layer pointer that agree. An open transaction that has
	// written this table blocks the adjustment (conflict error, not a
	// wait): its buffered rows were encrypted at the current layer and
	// would bypass the re-encrypting UPDATE below.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}
	st := cm.Onions[o]
	for range layers {
		key := p.colKey(cm, o, onion.RND)
		upd := &sqlparser.UpdateStmt{
			Table: cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{
				Column: cm.onionCol(o),
				Value: &sqlparser.FuncCall{
					Name: "decrypt_rnd",
					Args: []sqlparser.Expr{
						&sqlparser.BytesLit{V: key},
						&sqlparser.ColRef{Column: cm.onionCol(o)},
						&sqlparser.ColRef{Column: cm.ivCol()},
					},
				},
			}},
		}
		err := p.transition(func() func() { st.Descend(); return func() { st.Cur-- } }, func(sealed []byte) error {
			// The UPDATE carries the peeled layer's key: shipping it to
			// the DBMS for an in-place re-encryption is the paper's
			// adjustable-onion protocol (§3.1) — the key reveals only the
			// layer being given up, never an inner one.
			_, err := p.db.ExecAutonomousWithMeta(upd, sealed) //cryptdb:sink-ok onion layer key ships to the DBMS to peel RND in place (§3.1)
			return err
		})
		if err != nil {
			return fmt.Errorf("proxy: onion adjustment: %w", err)
		}
		p.stats.onionAdjustments.Add(1)
	}
	return nil
}

// adjustJoin brings both columns' JAdj onions to the JOIN layer and re-keys
// them to a common join-base: the first column of the transitivity group in
// lexicographic (table, column) order (§3.4). The base is picked before
// either side is lowered, so a deferred side is written under the base's
// key at once and needs no re-key.
func (p *Proxy) adjustJoin(a, b *ColumnMeta) error {
	ra, rb := a.groupRoot(), b.groupRoot()
	base := ra
	if ra != rb && lexAfter(ra, rb) {
		base = rb
	}
	baseKey := p.joinKey(base)
	// merge records the join in the group structure, with path compression
	// for the two joined columns (the caller holds the write side of p.mu;
	// groupRoot itself never writes). It rides the first of this join's
	// commits; merged says whether the structure records the join already.
	merged := a.joinGroup == base && b.joinGroup == base && ra.joinGroup == base && rb.joinGroup == base
	merge := func() (undo func()) {
		oa, ob, ora, orb := a.joinGroup, b.joinGroup, ra.joinGroup, rb.joinGroup
		ra.joinGroup, rb.joinGroup, a.joinGroup, b.joinGroup = base, base, base, base
		merged = true
		return func() {
			a.joinGroup, b.joinGroup, ra.joinGroup, rb.joinGroup = oa, ob, ora, orb
			merged = false
		}
	}
	// rekey gives cm the base's effective key, named in the metadata by
	// reference to the base's key column, never by value; and the merge,
	// if no earlier commit of this join carried it.
	rekey := func(cm *ColumnMeta) change {
		return func() func() {
			undoKey := setJoinKey(cm, baseKey, base.joinRefT, base.joinRefC)
			if merged {
				return undoKey
			}
			undoMerge := merge()
			return func() { undoMerge(); undoKey() }
		}
	}

	for _, cm := range []*ColumnMeta{a, b} {
		if err := cm.checkMinEnc(onion.JOIN); err != nil {
			return err
		}
		var with change
		if st := cm.Onions[onion.JAdj]; st != nil && st.Deferred {
			with = rekey(cm)
		}
		if err := p.lowerTo(cm, onion.JAdj, onion.JOIN, with); err != nil {
			return err
		}
	}

	if p.training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: b.Table.Logical, Column: b.Logical,
			Onion: onion.JAdj, Layer: onion.JOIN,
		})
	}

	// Re-key the queried columns that hold ciphertexts under another key.
	// Deltas are computed from each column's *current* effective key, so
	// columns merged into the group earlier converge lazily the next time
	// they are joined (the paper bounds total transitions by n(n-1)/2).
	for _, cm := range []*ColumnMeta{a, b} {
		delta, err := baseKey.Delta(p.joinKey(cm))
		if err != nil {
			return err
		}
		if delta.Cmp(bigOne) == 0 {
			continue // same key already
		}
		// Same rule as peel: a buffered write would miss the re-keying.
		if err := p.adjustBlocked(cm.Table); err != nil {
			return err
		}
		upd := &sqlparser.UpdateStmt{
			Table: cm.Table.Anon,
			Assignments: []sqlparser.Assignment{{
				Column: cm.onionCol(onion.JAdj),
				Value: &sqlparser.FuncCall{
					Name: "join_adj",
					Args: []sqlparser.Expr{
						&sqlparser.ColRef{Column: cm.onionCol(onion.JAdj)},
						&sqlparser.BytesLit{V: delta.Bytes()},
					},
				},
			}},
		}
		// The re-keying UPDATE and the metadata naming the new effective
		// key commit in one WAL batch.
		err = p.transition(rekey(cm),
			func(sealed []byte) error {
				// JOIN-ADJ adjustment sends the delta that re-keys one
				// column's ciphertexts onto the other's key (§3.4); the
				// delta exposes neither column's key.
				_, err := p.db.ExecAutonomousWithMeta(upd, sealed) //cryptdb:sink-ok join-adjustment delta ships to the DBMS to re-key ciphertexts in place (§3.4)
				return err
			})
		if err != nil {
			return fmt.Errorf("proxy: join adjustment: %w", err)
		}
		p.stats.onionAdjustments.Add(1)
		if err := p.materializeIndexes(cm); err != nil {
			return err
		}
	}
	// Group-root moves are metadata-only: a join that rewrote neither side
	// commits the merge alone.
	if !merged {
		merge()
		return p.persistMetaLocked()
	}
	return nil
}

// setJoinKey gives cm an effective join key, persisted by reference to the
// column (refT, refC) it derives from, and returns the undo.
func setJoinKey(cm *ColumnMeta, key *joinadj.Key, refT, refC string) (undo func()) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	oldKey, oldT, oldC := cm.joinKey, cm.joinRefT, cm.joinRefC
	cm.joinKey, cm.joinRefT, cm.joinRefC = key, refT, refC
	return func() { setJoinKey(cm, oldKey, oldT, oldC) }
}

func lexAfter(a, b *ColumnMeta) bool {
	if a.Table.Logical != b.Table.Logical {
		return a.Table.Logical > b.Table.Logical
	}
	return a.Logical > b.Logical
}

// adjustRangeJoin verifies a declared OPE-JOIN pair and exposes both Ord
// onions at OPE.
func (p *Proxy) adjustRangeJoin(a, b *ColumnMeta) error {
	if a.opeShared == nil || b.opeShared == nil || string(a.opeShared) != string(b.opeShared) {
		return fmt.Errorf("proxy: range join between %s.%s and %s.%s requires DeclareOPEJoin before data load (§3.4)",
			a.Table.Logical, a.Logical, b.Table.Logical, b.Logical)
	}
	if err := p.lowerTo(a, onion.Ord, onion.OPE, nil); err != nil {
		return err
	}
	return p.lowerTo(b, onion.Ord, onion.OPE, nil)
}

// materialise fills deferred onion o of cm: the first statement whose
// requirement names it pays, once and for the whole column, what every
// INSERT would otherwise have paid for it. set (if non-nil) moves the
// onion's layer, key or usage flag to what that statement needs; each
// row's plaintext is read back through the Eq onion and encrypted into o
// at that layer and effective key, under the row's stored IV. Every row's
// ciphertext and the sealed metadata that clears Deferred (and records
// set) commit in one WAL batch per shard (rewriteColumn), so a crash or a
// failed write leaves either the bit set, or the whole column written under
// a blob that says so. With the bit set, no row was written on one store;
// on a sharded engine the shards committed before the failure may hold
// rows, which nothing reads and the next use writes again. The caller
// holds the write side of p.mu and writers hold the read side for a whole
// statement, so no row can be inserted without the onion after the bit
// flips; rows buffered in another session's open transaction would be,
// hence the same retryable refusal as a layer adjustment.
func (p *Proxy) materialise(cm *ColumnMeta, o onion.Onion, set change) error {
	if p.replica != nil {
		// A write like any adjustment: the primary materialises, the rows
		// and the blob replicate down.
		return p.replicaReadOnly()
	}
	// The Eq onion is the source; after an increment the Add onion is.
	if err := p.maybeResync(cm); err != nil {
		return err
	}
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}
	st := cm.Onions[o]
	err := p.rewriteColumn(cm.Table, []string{cm.onionCol(onion.Eq), cm.ivCol()}, []string{cm.onionCol(o)},
		func() func() {
			st.Deferred = false
			undo := func() {}
			if set != nil {
				undo = set()
			}
			return func() { undo(); st.Deferred = true }
		},
		func(rows [][]sqldb.Value) ([][]sqldb.Value, error) {
			pts, err := p.mapRows(rows, func(r []sqldb.Value) ([]sqldb.Value, error) {
				pt, err := p.decryptEq(cm, r[1], r[2])
				return []sqldb.Value{pt, r[2]}, err
			})
			if err != nil {
				return nil, err
			}
			if o == onion.Ord && !p.opts.DisableOPECache {
				// §3.1 batch optimization, as on a multi-row INSERT.
				ms := opePlaintexts(cm, len(pts), func(i int) sqldb.Value { return pts[i][0] })
				_, _ = p.opeCipher(cm).EncryptBatch(ms) // cache warmer; the per-row pass reports errors
			}
			return p.mapRows(pts, func(r []sqldb.Value) ([]sqldb.Value, error) {
				if r[0].IsNull() {
					return nil, nil // the column is NULL already
				}
				ct, err := p.encryptOnion(cm, o, r[0], r[1].B)
				return []sqldb.Value{ct}, err
			})
		})
	if err != nil {
		return fmt.Errorf("proxy: materialising %s onion of %s.%s: %w", o, cm.Table.Logical, cm.Logical, err)
	}
	p.stats.onionAdjustments.Add(1)
	return nil
}

// maybeResync re-encrypts a column's Eq/JAdj/Ord onions from its Add onion
// after HOM increments made them stale — the two-query strategy of §3.3,
// applied lazily at column granularity. Deferred onions stay deferred. The
// rewritten rows and the cleared staleness commit together.
func (p *Proxy) maybeResync(cm *ColumnMeta) error {
	if cm == nil || !cm.Stale[onion.Eq] {
		return nil
	}
	// Rows buffered by an open transaction would be skipped by the rewrite
	// and then committed stale, so refuse (retryable) while one is open.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}
	var onions []onion.Onion
	write := []string{cm.ivCol()}
	for _, o := range cm.onionList() {
		if o != onion.Add {
			onions = append(onions, o)
			write = append(write, cm.onionCol(o))
		}
	}
	err := p.rewriteColumn(cm.Table, []string{cm.onionCol(onion.Add)}, write,
		func() func() {
			stale := cm.Stale
			cm.Stale = make(map[onion.Onion]bool)
			return func() { cm.Stale = stale }
		},
		func(rows [][]sqldb.Value) ([][]sqldb.Value, error) {
			return p.mapRows(rows, func(r []sqldb.Value) ([]sqldb.Value, error) {
				pt, err := p.decryptAdd(cm, r[1])
				if err != nil {
					return nil, err
				}
				iv, err := newIV()
				if err != nil {
					return nil, err
				}
				out := []sqldb.Value{sqldb.Blob(iv)}
				for _, o := range onions {
					v, err := p.encryptOnion(cm, o, pt, iv)
					if err != nil {
						return nil, err
					}
					out = append(out, v)
				}
				return out, nil
			})
		})
	if err != nil {
		return fmt.Errorf("proxy: resync of %s.%s: %w", cm.Table.Logical, cm.Logical, err)
	}
	p.stats.resyncs.Add(1)
	return nil
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
