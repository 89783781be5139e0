package proxy

import (
	"fmt"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// RaiseOnion re-encrypts an onion back up to its RND layer — the §3.5.1
// extension ("Onion re-encryption: in cases when an application performs
// infrequent queries requiring a low onion layer, CryptDB could be extended
// to re-encrypt onions back to a higher layer after the infrequent query
// finishes"). The proxy reads every ciphertext in the column, applies the
// RND wrap under the column's stored per-row IVs, and restores the onion
// state, shrinking the leak window of the lower layer. It is a whole-column
// rewrite like materialise, with the same refusals (on a replica, and while
// an open transaction has written the table) and the same commit: the
// re-wrapped rows and the raised layer are one WAL batch per shard. On one
// store, every row therefore sits at the layer the metadata names, before a
// crash or failed write and after it. On a sharded engine, a crash or a
// failed COMMIT between two shards' batches leaves the shards before it
// raised under metadata naming the lower layer: unlike a deferred onion's
// rows, these are read, so a raise has the torn-broadcast window of any
// onion adjustment (ARCHITECTURE.md, "Recovery story").
func (p *Proxy) RaiseOnion(table, col string, o onion.Onion) error {
	p.mu.Lock()
	defer p.mu.Unlock()

	cm, err := p.lookupCol(table, col)
	if err != nil {
		return err
	}
	st := cm.Onions[o]
	if st == nil {
		return fmt.Errorf("proxy: %s.%s has no %s onion", table, col, o)
	}
	if st.Cur == 0 {
		return nil // already fully wrapped
	}
	above := st.Stack[st.Cur-1]
	if above != onion.RND {
		return fmt.Errorf("proxy: cannot re-wrap non-RND layer %s", above)
	}
	if p.replica != nil {
		return p.replicaReadOnly()
	}
	// Rows buffered by an open transaction were encrypted at the lower
	// layer and would commit under the raised one.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}

	c := p.rndCipher(cm, o)
	err = p.rewriteColumn(cm.Table, []string{cm.onionCol(o), cm.ivCol()}, []string{cm.onionCol(o)},
		func() func() {
			cur, idxEq, idxJadj := st.Cur, cm.idxEq, cm.idxJadj
			st.Cur--
			// A raised Eq onion invalidates any DET index built while
			// exposed: RND ciphertexts are useless to it (§3.3), and it
			// would go stale.
			if o == onion.Eq {
				cm.idxEq = false
			}
			if o == onion.JAdj {
				cm.idxJadj = false
			}
			return func() { st.Cur, cm.idxEq, cm.idxJadj = cur, idxEq, idxJadj }
		},
		func(rows [][]sqldb.Value) ([][]sqldb.Value, error) {
			return p.mapRows(rows, func(r []sqldb.Value) ([]sqldb.Value, error) {
				val, iv := r[1], r[2]
				if val.IsNull() {
					return nil, nil
				}
				if iv.IsNull() {
					return nil, fmt.Errorf("proxy: row %v of %s.%s has no IV to re-wrap with", r[0], table, col)
				}
				switch val.Kind {
				case sqldb.KindInt:
					w, err := c.Uint64(iv.B, uint64(val.I))
					return []sqldb.Value{sqldb.Int(int64(w))}, err
				case sqldb.KindBlob:
					w, err := c.Bytes(iv.B, val.B)
					return []sqldb.Value{sqldb.Blob(w)}, err
				}
				return nil, fmt.Errorf("proxy: unexpected server value kind %s", val.Kind)
			})
		})
	if err != nil {
		return fmt.Errorf("proxy: re-encryption: %w", err)
	}
	p.stats.onionAdjustments.Add(1)
	return nil
}

// rewriteColumn is the one whole-column rewrite, shared by onion
// materialisation, the stale-onion resync and RaiseOnion. It reads the read
// columns of every row of tm (each row handed to compute is rid followed by
// them), applies the caller's metadata change c, lets compute produce the new
// values of the write columns, one slice per row in the same order (nil
// leaves a row alone), and writes them back by rid. Every row's UPDATE and
// the sealed metadata commit in one WAL batch per shard
// (ExecAutonomousListWithMeta), outside any client transaction: like a
// layer adjustment the rewrite must survive a client ROLLBACK. If compute
// or the commit fails, the change is undone (see transition). A sharded
// engine commits the blob with its last shard's batch, after the others,
// so a crash or failure between shards leaves the previous metadata over
// some shards' new rows: harmless where the change clears a mark (Deferred,
// Stale) that keeps those rows unread until the rewrite is redone. The
// column's rows are held in memory, as the read returns them. The
// statements carry rids and ciphertexts only.
func (p *Proxy) rewriteColumn(tm *TableMeta, read, write []string, c change, compute func(rows [][]sqldb.Value) ([][]sqldb.Value, error)) error {
	sel := &sqlparser.SelectStmt{
		Exprs: []sqlparser.SelectExpr{{Expr: &sqlparser.ColRef{Column: "rid"}}},
		From:  []sqlparser.TableRef{{Table: tm.Anon}},
	}
	for _, c := range read {
		sel.Exprs = append(sel.Exprs, sqlparser.SelectExpr{Expr: &sqlparser.ColRef{Column: c}})
	}
	res, err := p.db.Exec(sel)
	if err != nil {
		return fmt.Errorf("read: %w", err)
	}
	return p.transition(c, func(sealed []byte) error {
		out, err := compute(res.Rows)
		if err != nil {
			return err
		}
		stmts := make([]sqlparser.Statement, 0, len(out))
		for i, vals := range out {
			if vals == nil {
				continue
			}
			upd := &sqlparser.UpdateStmt{
				Table: tm.Anon,
				Where: &sqlparser.BinaryExpr{Op: "=",
					L: &sqlparser.ColRef{Column: "rid"},
					R: &sqlparser.IntLit{V: res.Rows[i][0].I}},
			}
			for j, c := range write {
				upd.Assignments = append(upd.Assignments, sqlparser.Assignment{Column: c, Value: valueToExpr(vals[j])})
			}
			stmts = append(stmts, upd)
		}
		if _, err := p.db.ExecAutonomousListWithMeta(stmts, sealed); err != nil {
			return fmt.Errorf("write: %w", err)
		}
		return nil
	})
}

// mapRows runs fn over rows on the batch worker pool; results land at their
// row's index and the lowest-index error wins, as in forEachRow.
func (p *Proxy) mapRows(rows [][]sqldb.Value, fn func(row []sqldb.Value) ([]sqldb.Value, error)) ([][]sqldb.Value, error) {
	out := make([][]sqldb.Value, len(rows))
	err := forEachRow(p.batchWorkers(), len(rows), func(i int) (err error) {
		out[i], err = fn(rows[i])
		return err
	})
	return out, err
}
