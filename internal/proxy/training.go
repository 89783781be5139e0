package proxy

import (
	"slices"

	"repro/internal/onion"
	"repro/internal/sqldb"
)

// OnionPlan is the developer's a-priori statement of which onions a column
// needs, per "table.column" — the §3.5.2 "known query set" optimization.
// For a column with an entry, an onion the entry lists is present from the
// first row (every INSERT encrypts into it), and an onion it omits is
// discarded: its server column is never declared and a query that needs it
// is refused with the table, column and onion named. A column with no entry
// gets the default lifecycle instead: every applicable onion is declared,
// only Eq is written, and each other onion is deferred until the first query
// that needs it (see materialise). The Eq onion is always kept (it is the
// decryption path for projections).
type OnionPlan map[string][]onion.Onion

// planKey builds the plan map key.
func planKey(table, col string) string { return table + "." + col }

// DerivePlan inspects the proxy's (typically training-mode) state and
// returns the minimal onion set each column needs: Eq always, JAdj only if
// a join adjusted it, Ord only if an order query exposed OPE, Add/Search
// only if a query used them.
func (p *Proxy) DerivePlan() OnionPlan {
	p.mu.RLock()
	defer p.mu.RUnlock()
	plan := make(OnionPlan)
	for _, tm := range p.tables {
		for _, cm := range tm.Cols {
			if cm.Plain || cm.EncFor != nil {
				continue
			}
			keep := []onion.Onion{onion.Eq}
			if st := cm.Onions[onion.JAdj]; st != nil && st.Cur > 0 {
				keep = append(keep, onion.JAdj)
			}
			if st := cm.Onions[onion.Ord]; st != nil && st.Cur > 0 {
				keep = append(keep, onion.Ord)
			}
			if cm.UsedSum && cm.HasOnion(onion.Add) {
				keep = append(keep, onion.Add)
			}
			if cm.UsedSearch && cm.HasOnion(onion.Search) {
				keep = append(keep, onion.Search)
			}
			plan[planKey(tm.Logical, cm.Logical)] = keep
		}
	}
	return plan
}

// TrainQuery is one query of a training trace.
type TrainQuery struct {
	SQL    string
	Params []sqldb.Value
}

// TrainPlan runs schema DDL plus a query trace through a fresh
// training-mode proxy and derives the onion plan — the developer workflow
// of §3.5.1/§3.5.2: "the developer can use the training mode ... to adjust
// onions to the correct layer a priori ... CryptDB can also discard onions
// that are not needed".
func TrainPlan(ddl []string, queries []TrainQuery) (OnionPlan, error) {
	db := sqldb.New()
	p, err := New(db, Options{HOMBits: 256, Training: true})
	if err != nil {
		return nil, err
	}
	for _, q := range ddl {
		if _, err := p.Execute(q); err != nil {
			return nil, err
		}
	}
	for _, q := range queries {
		if _, err := p.Execute(q.SQL, q.Params...); err != nil {
			return nil, err
		}
	}
	return p.DerivePlan(), nil
}

// plannedOnions returns the onions to declare for a column and whether the
// configured plan has an entry for it. With an entry the list is the entry
// (plus Eq) and every onion in it is present from the first row; without one
// it is every applicable onion, and the caller defers all but Eq.
func (p *Proxy) plannedOnions(table string, cm *ColumnMeta) (onions []onion.Onion, planned bool) {
	all := onion.Onions(cm.Type)
	keep, ok := p.opts.Plan[planKey(table, cm.Logical)]
	if !ok {
		return all, false
	}
	for _, o := range all {
		// Eq is mandatory: it is how the proxy reads values back.
		if o == onion.Eq || slices.Contains(keep, o) {
			onions = append(onions, o)
		}
	}
	return onions, true
}
