package proxy

import (
	"sort"

	"repro/internal/onion"
	"repro/internal/sqlparser"
)

// ColumnReport summarizes the steady-state security of one column for the
// §8.3 analysis (Figure 9): the weakest exposed scheme (MinEnc), whether
// the column ever needed HOM or SEARCH, and whether any query required
// plaintext computation CryptDB cannot provide.
type ColumnReport struct {
	Table, Column  string
	Plain          bool
	MultiPrincipal bool
	MinEnc         onion.Layer
	NeedsHOM       bool
	NeedsSEARCH    bool
	NeedsPlaintext bool
	// High reports whether the column sits in the paper's HIGH class:
	// RND/HOM, or DET with no repeats (repeat detection is the caller's
	// concern; this flag covers the layer part only).
	High bool
	// Present and Deferred split the column's declared onions, in canonical
	// order: the server holds ciphertexts of a present onion, at the layer
	// MinEnc accounts for, and none at all of a deferred one — which is
	// stronger than RND (no row count per value length, no NULL pattern). An
	// onion in neither list was discarded by the plan.
	Present, Deferred []onion.Onion
}

// Report computes the per-column steady-state onion analysis over all
// tables (run a query set — typically in training mode — first).
func (p *Proxy) Report() []ColumnReport {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []ColumnReport
	var names []string
	for n := range p.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, tn := range names {
		tm := p.tables[tn]
		for _, cm := range tm.Cols {
			out = append(out, p.columnReport(cm))
		}
	}
	return out
}

func (p *Proxy) columnReport(cm *ColumnMeta) ColumnReport {
	cr := ColumnReport{
		Table:          cm.Table.Logical,
		Column:         cm.Logical,
		Plain:          cm.Plain,
		MultiPrincipal: cm.EncFor != nil,
		NeedsHOM:       cm.UsedSum,
		NeedsSEARCH:    cm.UsedSearch,
		NeedsPlaintext: cm.NeedsPlaintext,
	}
	for _, o := range onion.Onions(cm.Type) {
		switch {
		case cm.present(o):
			cr.Present = append(cr.Present, o)
		case cm.HasOnion(o):
			cr.Deferred = append(cr.Deferred, o)
		}
	}
	switch {
	case cm.Plain:
		cr.MinEnc = onion.PLAIN
	case cm.EncFor != nil:
		// Multi-principal columns carry a single RND-class blob.
		cr.MinEnc = onion.RND
		cr.High = true
	default:
		rank := onion.RND.SecurityRank()
		for _, o := range []onion.Onion{onion.Eq, onion.JAdj, onion.Ord} {
			if st := cm.Onions[o]; st != nil {
				if r := st.Current().SecurityRank(); r < rank {
					rank = r
				}
			}
		}
		if cm.UsedSearch {
			if r := onion.SEARCH.SecurityRank(); r < rank {
				rank = r
			}
		}
		cr.MinEnc = layerForRank(rank)
		cr.High = rank >= onion.RND.SecurityRank()
	}
	return cr
}

func layerForRank(rank int) onion.Layer {
	switch rank {
	case 5:
		return onion.RND
	case 4:
		return onion.SEARCH
	case 3:
		return onion.DET
	case 2:
		return onion.JOIN
	case 1:
		return onion.OPE
	}
	return onion.PLAIN
}

// SchemaColumns counts logical columns per type, used by the trace
// analysis (Figure 7).
func (p *Proxy) SchemaColumns() (total int, byType map[sqlparser.ColType]int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	byType = make(map[sqlparser.ColType]int)
	for _, tm := range p.tables {
		for _, cm := range tm.Cols {
			total++
			byType[cm.Type]++
		}
	}
	return total, byType
}
