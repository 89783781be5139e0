package proxy

import (
	"fmt"

	"repro/internal/onion"
	"repro/internal/sqldb"
)

// RaiseOnion re-encrypts an onion back up to its RND layer — the §3.5.1
// extension ("Onion re-encryption: in cases when an application performs
// infrequent queries requiring a low onion layer, CryptDB could be extended
// to re-encrypt onions back to a higher layer after the infrequent query
// finishes"). The proxy rewrites the whole column at the raised layer from
// each row's Eq plaintext under the row's stored IV (transition), which wraps
// the inner ciphertext the server holds in RND, and restores the onion
// state, shrinking the leak window of the lower layer. It is a whole-column
// rewrite like a first use, with the same refusals (on a replica, and while
// an open transaction has written the table) and the same commit: the
// re-wrapped rows and the raised layer are one WAL batch per shard, and on
// a sharded engine the shards commit as one decision. So every row sits
// at the layer the metadata names, before a crash or failed write and
// after it, on one store and on every shard.
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
	// Rows buffered by an open transaction were encrypted at the lower
	// layer and would commit under the raised one.
	if err := p.adjustBlocked(cm.Table); err != nil {
		return err
	}

	err = p.transition(func(a *adjustment) error {
		rw := a.column(cm)
		setTo(a, &st.Cur, st.Cur-1)
		// A raised Eq onion invalidates any DET index built while exposed:
		// RND ciphertexts are useless to it (§3.3), and it would go stale.
		if o == onion.Eq {
			setTo(a, &cm.idxEq, false)
		}
		if o == onion.JAdj {
			setTo(a, &cm.idxJadj, false)
		}
		rw.onions = append(rw.onions, a.at(cm, o))
		a.adjusted++
		return nil
	})
	if err != nil {
		return fmt.Errorf("proxy: re-encryption: %w", err)
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
