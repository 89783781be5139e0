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
	}
	tm.nextRid.Store(1)

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
	return p.transition(func(a *adjustment) error {
		p.tables[st.Name] = tm
		a.onUndo(func() { delete(p.tables, st.Name); p.nTab-- })
		a.ddl = append(a.ddl, anon)
		return nil
	})
}

// createIndex remembers the application's index request and builds the
// indexes the onion layers support now (index); a later onion adjustment
// builds the others as it exposes their layers.
func (p *Proxy) createIndex(st *sqlparser.CreateIndexStmt) error {
	tm, ok := p.tables[st.Table]
	if !ok {
		return fmt.Errorf("proxy: no table %s", st.Table)
	}
	cm := tm.Col(st.Column)
	if cm == nil {
		return fmt.Errorf("proxy: no column %s.%s", st.Table, st.Column)
	}
	if st.Unique && p.db.Shards() > 1 {
		// Rows are placed by rid, so each shard would check the index
		// over its own rows only.
		return fmt.Errorf("proxy: CREATE UNIQUE INDEX on %s.%s refused: the store has %d shards, rows are placed by the hidden row id, and each shard would check the index over its own rows only", st.Table, st.Column, p.db.Shards())
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
	// The want* flags are metadata even when no index can be built yet
	// (every onion still at RND): they commit with the builds the exposed
	// layers allow, so a later adjustment that exposes an indexable layer
	// builds the rest with its own batch.
	return p.transition(func(a *adjustment) error {
		setTo(a, &cm.wantIndex, true)
		setTo(a, &cm.wantUnique, st.Unique)
		setTo(a, &cm.wantUsing, using)
		a.exposed = append(a.exposed, cm)
		return nil
	})
}

// index appends to the transition the server indexes cm's CREATE INDEX
// wants on the layers its onions sit at now, and records each in the
// metadata the transition seals with them. Per §3.3, indexes are built on
// DET/JOIN/OPE ciphertexts but never on RND/HOM/SEARCH: a hash index on
// the Eq onion once it is at DET, on the JAdj onion once joins expose it,
// and an ordered (range) index on the Ord onion once it sits at OPE — so
// one application CREATE INDEX yields both the equality and the range
// index, exactly as a B-tree over plaintext would serve both. A UNIQUE
// build over duplicate values refuses the whole transition (sqldb's check
// when the list stages), so the layer that would expose them stays put.
func (a *adjustment) index(cm *ColumnMeta) {
	if !cm.wantIndex {
		return
	}
	build := func(o onion.Onion, layer onion.Layer, built *bool, suffix, using string, unique bool) {
		if st := cm.Onions[o]; st == nil || st.Current() != layer || *built {
			return
		}
		setTo(a, built, true)
		a.ddl = append(a.ddl, &sqlparser.CreateIndexStmt{
			Name:   cm.Table.Anon + "_" + cm.Anon + "_" + suffix + "_idx",
			Table:  cm.Table.Anon,
			Column: cm.onionCol(o),
			Unique: unique,
			Using:  using,
		})
	}
	// USING BTREE asks for a range-only index: skip the Eq hash index
	// unless it must enforce UNIQUE. USING HASH suppresses the ordered
	// index. The JAdj index is proxy-internal (§3.4 joins probe by
	// equality) and ignores the clause.
	if cm.wantUsing != "BTREE" || cm.wantUnique {
		build(onion.Eq, onion.DET, &cm.idxEq, "eq", "HASH", cm.wantUnique)
	}
	build(onion.JAdj, onion.JOIN, &cm.idxJadj, "jadj", "HASH", false)
	if cm.wantUsing != "HASH" {
		build(onion.Ord, onion.OPE, &cm.idxOrd, "ord", "BTREE", false)
	}
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
	// The declaration is persisted by label (restore re-derives the shared
	// key): a restarted proxy must keep encrypting both columns under the
	// same OPE key or range joins silently break.
	set := func(cm *ColumnMeta, key []byte, label string) {
		cm.opeShared, cm.opeSharedLabel, cm.opeCipher = key, label, nil
	}
	return p.transition(func(a *adjustment) error {
		k1, l1, k2, l2 := c1.opeShared, c1.opeSharedLabel, c2.opeShared, c2.opeSharedLabel
		set(c1, shared, label)
		set(c2, shared, label)
		a.onUndo(func() { set(c1, k1, l1); set(c2, k2, l2) })
		return nil
	})
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
