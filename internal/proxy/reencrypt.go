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
// an open transaction has written the table) and the same order: rows
// first, then the raised layer is persisted. The rows commit one by one, so
// a crash in the middle of a raise leaves the column with mixed layers
// under metadata that still names the lower one.
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
	st.Cur--
	// A raised Eq onion invalidates any DET index built while exposed:
	// RND ciphertexts are useless to it (§3.3), and it would go stale.
	if o == onion.Eq && cm.idxEq {
		cm.idxEq = false
	}
	if o == onion.JAdj && cm.idxJadj {
		cm.idxJadj = false
	}
	p.stats.onionAdjustments.Add(1)
	return p.persistMetaLocked()
}

// rewriteColumn is the one whole-column rewrite loop, shared by onion
// materialisation, the stale-onion resync and RaiseOnion. It reads the read
// columns of every row of tm (each row handed to compute is rid followed by
// them), lets compute produce the new values of the write columns, one slice
// per row in the same order (nil leaves a row alone), and writes them back
// by rid. Each row's UPDATE commits by itself, outside any client
// transaction: like a layer adjustment the rewrite must survive a client
// ROLLBACK, and a sharded engine's transactions are single-shard. Callers
// therefore keep their completion mark
// (deferred bit, staleness flag) set until this returns nil and are
// idempotent when re-run. The statements carry rids and ciphertexts only.
func (p *Proxy) rewriteColumn(tm *TableMeta, read, write []string, compute func(rows [][]sqldb.Value) ([][]sqldb.Value, error)) error {
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
	out, err := compute(res.Rows)
	if err != nil {
		return err
	}
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
		if _, err := p.db.ExecAutonomous(upd); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
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
