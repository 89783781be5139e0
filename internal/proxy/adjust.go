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
		return p.lowerTo(req.cm, onion.Eq, onion.DET)
	case onion.ClassOrder:
		if err := p.maybeResync(req.cm); err != nil {
			return err
		}
		return p.lowerTo(req.cm, onion.Ord, onion.OPE)
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
// and records the usage flag of the §8.3 analysis. The build that recorded
// the requirement has checked that the plan kept the onion.
func (p *Proxy) firstUse(cm *ColumnMeta, o onion.Onion, used *bool) error {
	if err := p.materialise(cm, o); err != nil {
		return err
	}
	if !*used {
		*used = true
		return p.persistMetaLocked()
	}
	return nil
}

// lowerTo peels onion o of column cm down to layer target by issuing
// server-side DECRYPT_RND UPDATEs inside a transaction (§3.2). A no-op if
// already there.
func (p *Proxy) lowerTo(cm *ColumnMeta, o onion.Onion, target onion.Layer) error {
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
	// A deferred onion has no ciphertexts to strip a layer from yet.
	if err := p.materialise(cm, o); err != nil {
		return err
	}

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
	for _, layer := range layers {
		if layer != onion.RND {
			return fmt.Errorf("proxy: cannot strip non-RND layer %s of %s onion", layer, o)
		}
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
		err := p.transition(st.Descend, func() { st.Cur-- }, func(sealed []byte) error {
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
	if p.training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: cm.Table.Logical, Column: cm.Logical, Onion: o, Layer: target,
		})
	}
	return p.materializeIndexes(cm)
}

// adjustJoin brings both columns' JAdj onions to the JOIN layer and re-keys
// them to a common join-base: the first column of the transitivity group in
// lexicographic (table, column) order (§3.4).
func (p *Proxy) adjustJoin(a, b *ColumnMeta) error {
	for _, cm := range []*ColumnMeta{a, b} {
		if err := cm.checkMinEnc(onion.JOIN); err != nil {
			return err
		}
		if err := p.lowerTo(cm, onion.JAdj, onion.JOIN); err != nil {
			return err
		}
	}

	ra, rb := a.groupRoot(), b.groupRoot()
	base := ra
	if ra != rb {
		if lexAfter(ra, rb) {
			base = rb
		}
		ra.joinGroup = base
		rb.joinGroup = base
	}
	// Path compression for the two joined columns (the caller holds the
	// write side of p.mu; groupRoot itself never writes).
	a.joinGroup, b.joinGroup = base, base

	if p.training {
		p.trainLog = append(p.trainLog, TrainEvent{
			Table: b.Table.Logical, Column: b.Logical,
			Onion: onion.JAdj, Layer: onion.JOIN,
		})
	}

	// Re-key the two queried columns to the group's base key. Deltas are
	// computed from each column's *current* effective key, so columns
	// merged into the group earlier converge lazily the next time they
	// are joined (the paper bounds total transitions by n(n-1)/2).
	baseKey := p.joinKey(base)
	for _, cm := range []*ColumnMeta{a, b} {
		cur := p.joinKey(cm)
		delta, err := baseKey.Delta(cur)
		if err != nil {
			return err
		}
		if delta.Cmp(bigOne) == 0 {
			continue // same key already
		}
		// Same rule as lowerTo: a buffered write would miss the re-keying.
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
		// key (by reference to the base column, never by value) commit in
		// one WAL batch.
		oldRefT, oldRefC := cm.joinRefT, cm.joinRefC
		setKey := func(key *joinadj.Key, refT, refC string) func() {
			return func() {
				cm.mu.Lock()
				cm.joinKey, cm.joinRefT, cm.joinRefC = key, refT, refC
				cm.mu.Unlock()
			}
		}
		err = p.transition(setKey(baseKey, base.joinRefT, base.joinRefC), setKey(cur, oldRefT, oldRefC),
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
	// Group-root moves are metadata-only; persist them even when both
	// deltas were identity.
	return p.persistMetaLocked()
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
	if err := p.lowerTo(a, onion.Ord, onion.OPE); err != nil {
		return err
	}
	return p.lowerTo(b, onion.Ord, onion.OPE)
}

// materialise fills a deferred onion: the first statement whose requirement
// names onion o of cm pays, once and for the whole column, what every INSERT
// would otherwise have paid for it. Each row's plaintext is read back through
// the Eq onion and encrypted into o at o's current layer and current
// effective key, under the row's stored IV. Rows first, bit second: Deferred
// is cleared and persisted only after every row is written, so a crash in
// between leaves the bit set and the next use redoes an idempotent rewrite.
// The caller holds the write side of p.mu and writers hold the read side for
// a whole statement, so no row can be inserted without the onion after the
// bit flips; rows buffered in another session's open transaction would be,
// hence the same retryable refusal as a layer adjustment. A no-op for an
// onion that is present.
func (p *Proxy) materialise(cm *ColumnMeta, o onion.Onion) error {
	st := cm.Onions[o]
	if st == nil || !st.Deferred {
		return nil
	}
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
	err := p.rewriteColumn(cm.Table, []string{cm.onionCol(onion.Eq), cm.ivCol()}, []string{cm.onionCol(o)},
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
	st.Deferred = false
	p.stats.onionAdjustments.Add(1)
	return p.persistMetaLocked()
}

// maybeResync re-encrypts a column's Eq/JAdj/Ord onions from its Add onion
// after HOM increments made them stale — the two-query strategy of §3.3,
// applied lazily at column granularity. Deferred onions stay deferred.
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
	cm.Stale = make(map[onion.Onion]bool)
	p.stats.resyncs.Add(1)
	// Persist the cleared staleness. A crash before this point leaves the
	// stale flags set, which only costs a redundant (idempotent) resync
	// on the next restart — never a stale answer.
	return p.persistMetaLocked()
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
