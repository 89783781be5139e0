package proxy

import (
	"fmt"
	"strings"

	"repro/internal/onion"
	"repro/internal/sqlparser"
)

// createTable registers a logical table and creates its anonymized
// counterpart at the DBMS: opaque table/column names, one server column per
// onion, an IV column, and a hidden row id the proxy uses to address rows
// (Figure 3's data layout).
func (p *Proxy) createTable(st *sqlparser.CreateTableStmt) error {
	if _, exists := p.tables[st.Name]; exists {
		return fmt.Errorf("proxy: table %s already exists", st.Name)
	}
	p.nTab++
	tm := &TableMeta{
		Logical:   st.Name,
		Anon:      fmt.Sprintf("table%d", p.nTab),
		byName:    make(map[string]*ColumnMeta),
		SpeaksFor: st.SpeaksFor,
		nextRid:   1,
	}

	anon := &sqlparser.CreateTableStmt{Name: tm.Anon}
	anon.Cols = append(anon.Cols, sqlparser.ColumnDef{
		Name: "rid", Type: sqlparser.TypeInt, Primary: true,
	})

	for i, cd := range st.Cols {
		cm := &ColumnMeta{
			Logical: cd.Name,
			Anon:    fmt.Sprintf("c%d", i+1),
			Type:    cd.Type,
			Plain:   cd.Plain,
			EncFor:  cd.EncFor,
			Primary: cd.Primary,
			Table:   tm,
			Onions:  make(map[onion.Onion]*onion.State),
			Stale:   make(map[onion.Onion]bool),
		}
		cm.joinGroup = cm
		cm.joinRefT, cm.joinRefC = st.Name, cd.Name
		if cd.MinEnc != "" {
			l, err := onion.LayerFromString(cd.MinEnc)
			if err != nil {
				p.nTab--
				return fmt.Errorf("proxy: column %s.%s: %w", st.Name, cd.Name, err)
			}
			cm.MinEnc = l
		}
		tm.Cols = append(tm.Cols, cm)
		tm.byName[cd.Name] = cm

		switch {
		case cd.Plain:
			anon.Cols = append(anon.Cols, sqlparser.ColumnDef{Name: cm.Anon, Type: cd.Type})
		case cd.EncFor != nil:
			// Multi-principal column: a single RND-under-principal-key
			// blob; no server computation is possible on it (§4.2).
			anon.Cols = append(anon.Cols, sqlparser.ColumnDef{Name: cm.mpCol(), Type: sqlparser.TypeBlob})
		default:
			onions, planned := p.plannedOnions(st.Name, cm)
			for _, o := range onions {
				cm.Onions[o] = onion.NewState(onion.StackFor(o, cd.Type))
				// No plan entry: only Eq is written; the first query that
				// needs another onion materialises it (§3.5.2).
				cm.Onions[o].Deferred = !planned && o != onion.Eq
				anon.Cols = append(anon.Cols, sqlparser.ColumnDef{
					Name: cm.onionCol(o),
					Type: cm.serverType(o),
				})
			}
			anon.Cols = append(anon.Cols, sqlparser.ColumnDef{Name: cm.ivCol(), Type: sqlparser.TypeBlob})
		}
	}

	// Validate ENC FOR owner columns before creating anything, so a
	// rejected schema leaves no trace at the proxy or the DBMS.
	for _, cm := range tm.Cols {
		if cm.EncFor != nil && tm.byName[cm.EncFor.OwnerColumn] == nil {
			p.nTab--
			return fmt.Errorf("proxy: ENC FOR owner column %s.%s does not exist",
				st.Name, cm.EncFor.OwnerColumn)
		}
	}

	// Register first so the sealed metadata snapshot includes the new
	// table, then create it at the DBMS with the snapshot attached: table
	// and metadata become durable in one WAL batch, or not at all.
	p.tables[st.Name] = tm
	p.metaMu.Lock()
	defer p.metaMu.Unlock()
	sealed, err := p.sealedMetaLocked()
	if err != nil {
		delete(p.tables, st.Name)
		p.nTab--
		return err
	}
	//cryptdb:sink-ok anon is the rewritten CREATE TABLE: anonymized identifiers and onion column defs only, no data literals
	if _, err := p.db.ExecAutonomousWithMeta(anon, sealed); err != nil {
		if !stmtApplied(err) {
			delete(p.tables, st.Name)
			p.nTab--
		}
		return fmt.Errorf("proxy: creating anonymized table: %w", err)
	}
	return nil
}

// createIndex remembers the application's index request and materializes
// indexes on the onion layers that support them. Per §3.3, indexes are
// built on DET/JOIN/OPE ciphertexts but never on RND/HOM/SEARCH: the proxy
// hash-indexes the Eq onion once it is at DET, the JAdj onion once joins
// expose it, and builds an ordered (range) index on the Ord onion once it
// sits at OPE — so one application CREATE INDEX yields both the equality
// and the range index, exactly as a B-tree over plaintext would serve both.
func (p *Proxy) createIndex(st *sqlparser.CreateIndexStmt) error {
	tm, ok := p.tables[st.Table]
	if !ok {
		return fmt.Errorf("proxy: no table %s", st.Table)
	}
	cm := tm.Col(st.Column)
	if cm == nil {
		return fmt.Errorf("proxy: no column %s.%s", st.Table, st.Column)
	}
	using := strings.ToUpper(st.Using)
	if using == "ORDERED" {
		using = "BTREE"
	}
	switch using {
	case "", "HASH", "BTREE":
	default:
		return fmt.Errorf("proxy: unknown index type %q", st.Using)
	}
	if cm.Plain {
		//cryptdb:sink-ok CREATE INDEX carries identifiers only; the column is declared plaintext by the schema annotation
		_, err := p.db.Exec(&sqlparser.CreateIndexStmt{
			Name: st.Name, Table: tm.Anon, Column: cm.Anon, Unique: st.Unique, Using: st.Using,
		})
		return err
	}
	if cm.EncFor != nil {
		return fmt.Errorf("proxy: cannot index multi-principal column %s.%s", st.Table, st.Column)
	}
	cm.wantIndex = true
	cm.wantUnique = st.Unique
	cm.wantUsing = using
	if err := p.materializeIndexes(cm); err != nil {
		return err
	}
	// The want* flags are metadata even when no index materialized yet
	// (all onions still at RND): persist so a restarted proxy still knows
	// to build the index once adjustment exposes an indexable layer.
	return p.persistMetaLocked()
}

// materializeIndexes creates server indexes for onions whose current layer
// supports them.
func (p *Proxy) materializeIndexes(cm *ColumnMeta) error {
	if !cm.wantIndex {
		return nil
	}
	// USING BTREE asks for a range-only index: skip the Eq hash index
	// unless it must enforce UNIQUE. USING HASH suppresses the ordered
	// index below. The JAdj index is proxy-internal (§3.4 joins probe by
	// equality) and ignores the clause.
	// Each index creation commits with a sealed metadata snapshot that
	// already records it as materialized, so a crash cannot leave the
	// index built but forgotten (or vice versa).
	createWithMeta := func(stmt *sqlparser.CreateIndexStmt, done *bool) error {
		p.metaMu.Lock()
		defer p.metaMu.Unlock()
		*done = true
		sealed, err := p.sealedMetaLocked()
		if err == nil {
			_, err = p.db.ExecWithMeta(stmt, sealed)
		}
		if err != nil && !stmtApplied(err) {
			*done = false
		}
		return err
	}
	if st := cm.Onions[onion.Eq]; st != nil && st.Current() == onion.DET && !cm.idxEq &&
		(cm.wantUsing != "BTREE" || cm.wantUnique) {
		// DET ciphertexts only support equality: hash index, no ordered.
		stmt := &sqlparser.CreateIndexStmt{
			Name:   cm.Table.Anon + "_" + cm.Anon + "_eq_idx",
			Table:  cm.Table.Anon,
			Column: cm.onionCol(onion.Eq),
			Unique: cm.wantUnique,
			Using:  "HASH",
		}
		if err := createWithMeta(stmt, &cm.idxEq); err != nil {
			return err
		}
	}
	if st := cm.Onions[onion.JAdj]; st != nil && st.Current() == onion.JOIN && !cm.idxJadj {
		stmt := &sqlparser.CreateIndexStmt{
			Name:   cm.Table.Anon + "_" + cm.Anon + "_jadj_idx",
			Table:  cm.Table.Anon,
			Column: cm.onionCol(onion.JAdj),
			Using:  "HASH",
		}
		if err := createWithMeta(stmt, &cm.idxJadj); err != nil {
			return err
		}
	}
	// OPE ciphertexts preserve plaintext order, so an ordered index over
	// them serves range predicates, ORDER BY ... LIMIT and MIN/MAX (§3.3).
	// The Ord onion starts under RND; this materializes lazily after the
	// first order-class query peels it (lowerTo re-invokes us).
	if st := cm.Onions[onion.Ord]; st != nil && st.Current() == onion.OPE && !cm.idxOrd &&
		cm.wantUsing != "HASH" {
		stmt := &sqlparser.CreateIndexStmt{
			Name:   cm.Table.Anon + "_" + cm.Anon + "_ord_idx",
			Table:  cm.Table.Anon,
			Column: cm.onionCol(onion.Ord),
			Using:  "BTREE",
		}
		if err := createWithMeta(stmt, &cm.idxOrd); err != nil {
			return err
		}
	}
	return nil
}

// DeclareOPEJoin declares ahead of time that two columns will participate
// in range joins, giving their Ord onions a shared OPE key (§3.4: "CryptDB
// requires that pairs of columns that will be involved in such joins be
// declared by the application ahead of time"). Must be called before any
// rows are inserted into either table.
func (p *Proxy) DeclareOPEJoin(table1, col1, table2, col2 string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c1, err := p.lookupCol(table1, col1)
	if err != nil {
		return err
	}
	c2, err := p.lookupCol(table2, col2)
	if err != nil {
		return err
	}
	rows := func(anon string) int {
		if ti := p.db.Table(anon); ti != nil {
			return ti.RowCount()
		}
		return 0
	}
	if rows(c1.Table.Anon) > 0 || rows(c2.Table.Anon) > 0 {
		return fmt.Errorf("proxy: OPE-JOIN must be declared before data is inserted")
	}
	label := "opejoin:" + table1 + "." + col1 + ":" + table2 + "." + col2
	shared := p.mk.DeriveLabel(label)
	c1.opeShared = shared
	c2.opeShared = shared
	c1.opeSharedLabel = label
	c2.opeSharedLabel = label
	c1.opeCipher = nil
	c2.opeCipher = nil
	// Persist the declaration (by label; restore re-derives the shared
	// key): a restarted proxy must keep encrypting both columns under the
	// same OPE key or range joins silently break.
	return p.persistMetaLocked()
}

func (p *Proxy) lookupCol(table, col string) (*ColumnMeta, error) {
	tm, ok := p.tables[table]
	if !ok {
		return nil, fmt.Errorf("proxy: no table %s", table)
	}
	cm := tm.Col(col)
	if cm == nil {
		return nil, fmt.Errorf("proxy: no column %s.%s", table, col)
	}
	return cm, nil
}
