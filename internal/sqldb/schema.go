package sqldb

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"repro/internal/sqlparser"
)

// Column describes one table column. Primary records a PRIMARY KEY
// declaration from CREATE TABLE; it survives snapshots and WAL replay so
// storage layers above (the sharded store routes rows by the first primary
// column) can recover their placement rule from the schema alone.
type Column struct {
	Name    string
	Type    sqlparser.ColType
	Primary bool
}

// Table is the storage for one table: a page-grouped row store (see
// page.go) plus hash (equality) and ordered (range) indexes. Rows are
// append-only slots; deleted rows become nil tombstones and slots are
// reused via a free list. Indexes are always fully resident and address
// rows by slot; only row payloads page to disk.
type Table struct {
	Name       string
	Cols       []Column
	colIdx     map[string]int
	pages      []atomic.Pointer[rowPage] // slot s lives in pages[s>>pageShift]
	nslots     int                       // slot-space size: live rows have slot < nslots (the last page may extend past it)
	free       []int
	indexes    map[string]*hashIndex // column name -> equality index
	ordIndexes map[string]*ordIndex  // column name -> ordered index
	live       int
	dataBytes  int // live row payload bytes, independent of residency

	// Cache state (see bufpool.go / ckpt_incremental.go): pager is the
	// buffer cache the table's pages are charged to, fixed at creation;
	// disk locates each page's current on-disk segment, and dropped tells a
	// checkpoint still writing this table's pages not to install them.
	pager   *pager
	disk    []pageDiskRec
	dropped bool

	// lockSeed spreads this table's slots across the database's striped
	// slot-lock table (see locktable.go). Fixed at creation.
	lockSeed uint64
}

// IndexInfo describes one index on a table, for introspection: storage
// layers above sqldb (the sharded store reconciles schemas across shards
// after a crash) rebuild DDL from it.
type IndexInfo struct {
	Column  string
	Unique  bool
	Ordered bool // true for the ordered (range) index, false for hash
}

// Indexes lists the table's indexes in a deterministic order (hash indexes
// first, then ordered, each sorted by column).
func (t *Table) Indexes() []IndexInfo {
	var out []IndexInfo
	cols := make([]string, 0, len(t.indexes))
	for c := range t.indexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		out = append(out, IndexInfo{Column: c, Unique: t.indexes[c].unique})
	}
	cols = cols[:0]
	for c := range t.ordIndexes {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	for _, c := range cols {
		out = append(out, IndexInfo{Column: c, Ordered: true})
	}
	return out
}

type hashIndex struct {
	column string
	pos    int
	unique bool
	m      map[string][]int // value key -> row slots
	// kindCount tracks entries per Value kind (the Key encoding's leading
	// tag byte). Like the ordered index, an equality lookup by key is only
	// trusted when the stored kinds cannot coerce against the probe value
	// in ways a key comparison misses.
	kindCount [4]int
}

// addSlot appends a slot under key, maintaining the kind tally.
func (idx *hashIndex) addSlot(key string, slot int) {
	idx.m[key] = append(idx.m[key], slot)
	if k := int(key[0]); k < len(idx.kindCount) {
		idx.kindCount[k]++
	}
}

// removeSlot drops one slot under key, maintaining the kind tally; a no-op
// when the slot is not indexed under the key.
func (idx *hashIndex) removeSlot(key string, slot int) {
	slots := idx.m[key]
	for i, s := range slots {
		if s == slot {
			slots[i] = slots[len(slots)-1]
			idx.m[key] = slots[:len(slots)-1]
			if k := int(key[0]); k < len(idx.kindCount) {
				idx.kindCount[k]--
			}
			break
		}
	}
	if len(idx.m[key]) == 0 {
		delete(idx.m, key)
	}
}

// soleKindOf reports the single non-NULL kind in a tally, shared by the
// hash and ordered indexes.
func soleKindOf(kindCount [4]int) (Kind, bool) {
	kind, kinds := KindNull, 0
	for k, c := range kindCount {
		if Kind(k) == KindNull || c == 0 {
			continue
		}
		kinds++
		kind = Kind(k)
	}
	return kind, kinds <= 1
}

func (idx *hashIndex) soleKind() (Kind, bool) { return soleKindOf(idx.kindCount) }

// eqSlots resolves an equality bound through the index, or reports ok=false
// when stored kinds could coerce against the bound (e.g. a text '5' probing
// an integer column), in which case the caller must fall back to a scan.
func (idx *hashIndex) eqSlots(v Value) ([]int, bool) {
	kind, homogeneous := idx.soleKind()
	if !homogeneous {
		return nil, false
	}
	if kind == KindNull {
		return nil, true // empty or all-NULL: equality matches nothing
	}
	cv, ok := coerceOrdBound(v, kind)
	if !ok {
		// An incoercible bound of a different kind: the per-row coercing
		// comparison could still match (or error); only a scan preserves
		// those semantics.
		return nil, false
	}
	return idx.m[cv.Key()], true
}

func newTable(name string, cols []Column, pg *pager) *Table {
	h := fnv.New64a()
	h.Write([]byte(name))
	t := &Table{
		Name:       name,
		Cols:       cols,
		colIdx:     make(map[string]int, len(cols)),
		indexes:    make(map[string]*hashIndex),
		ordIndexes: make(map[string]*ordIndex),
		pager:      pg,
		lockSeed:   h.Sum64(),
	}
	for i, c := range cols {
		t.colIdx[c.Name] = i
	}
	return t
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// RowCount reports the number of live rows.
func (t *Table) RowCount() int { return t.live }

// addIndex builds a hash index over an existing column.
func (t *Table) addIndex(column string, unique bool) error {
	if _, ok := t.indexes[column]; ok {
		return nil // idempotent
	}
	pos := t.ColumnIndex(column)
	if pos < 0 {
		return fmt.Errorf("sqldb: no column %s.%s to index", t.Name, column)
	}
	idx := &hashIndex{column: column, pos: pos, unique: unique, m: make(map[string][]int)}
	err := t.scan(func(slot int, row []Value) error {
		key := row[pos].Key()
		if unique && len(idx.m[key]) > 0 {
			return fmt.Errorf("sqldb: duplicate value for unique index on %s.%s", t.Name, column)
		}
		idx.addSlot(key, slot)
		return nil
	})
	if err != nil {
		return err
	}
	t.indexes[column] = idx
	return nil
}

// addOrdIndex builds an ordered (range) index over an existing column.
func (t *Table) addOrdIndex(column string) error {
	if _, ok := t.ordIndexes[column]; ok {
		return nil // idempotent
	}
	pos := t.ColumnIndex(column)
	if pos < 0 {
		return fmt.Errorf("sqldb: no column %s.%s to index", t.Name, column)
	}
	ix := newOrdIndex(column, pos)
	err := t.scan(func(slot int, row []Value) error {
		ix.insert(row[pos], slot)
		return nil
	})
	if err != nil {
		return err
	}
	t.ordIndexes[column] = ix
	return nil
}

// ordIndex returns the ordered index on column, or nil.
func (t *Table) ordIndex(column string) *ordIndex { return t.ordIndexes[column] }

// checkInsertUnique reports whether inserting row would violate a UNIQUE
// index.
func (t *Table) checkInsertUnique(row []Value) error {
	for _, idx := range t.indexes {
		if idx.unique && len(idx.m[row[idx.pos].Key()]) > 0 {
			return fmt.Errorf("sqldb: unique index violation on %s.%s", t.Name, idx.column)
		}
	}
	return nil
}

// insertRow places a row into a free slot, returning the slot number.
// Uniqueness is the caller's check (checkInsertUnique).
func (t *Table) insertRow(row []Value) (int, error) {
	slot, n := t.nslots, len(t.free)
	if n > 0 {
		slot = t.free[n-1]
	}
	if err := t.putRow(slot, row); err != nil {
		return 0, err
	}
	if n > 0 {
		t.free = t.free[:n-1]
	}
	return slot, nil
}

// placeRow inserts a row into a specific slot, used by WAL replay and
// snapshot loading: redo records address rows by the slot the original
// execution assigned, so recovery must reproduce the layout exactly.
// Constraint checks are skipped (the original execution validated them).
func (t *Table) placeRow(slot int, row []Value) error {
	for s := t.nslots; s < slot; s++ {
		t.free = append(t.free, s) // interior gap: reusable
	}
	old, err := t.rowAt(slot)
	if err != nil {
		return err
	}
	if old != nil {
		return fmt.Errorf("sqldb: replay places row into occupied slot %d of %s", slot, t.Name)
	}
	for i, s := range t.free {
		if s == slot {
			t.free[i] = t.free[len(t.free)-1]
			t.free = t.free[:len(t.free)-1]
			break
		}
	}
	return t.putRow(slot, row)
}

// deleteRow removes the row in slot, maintaining indexes, and returns it
// (nil for an empty slot).
func (t *Table) deleteRow(slot int) ([]Value, error) {
	if slot >= t.nslots {
		return nil, nil
	}
	p, err := t.page(slot >> pageShift)
	if err != nil {
		return nil, err
	}
	row := p.rows[slot&pageMask]
	if row == nil {
		return nil, nil
	}
	for _, idx := range t.indexes {
		idx.removeSlot(row[idx.pos].Key(), slot)
	}
	for _, ix := range t.ordIndexes {
		ix.remove(row[ix.pos], slot)
	}
	t.clearRow(p, slot)
	t.free = append(t.free, slot)
	t.live--
	return row, nil
}

// checkUpdateUnique reports whether writing v into (slot, pos) would
// violate a UNIQUE index on that column.
func (t *Table) checkUpdateUnique(slot, pos int, v Value) error {
	for _, idx := range t.indexes {
		if idx.pos != pos || !idx.unique {
			continue
		}
		for _, s := range idx.m[v.Key()] {
			if s != slot {
				return fmt.Errorf("sqldb: unique index violation on %s.%s", t.Name, idx.column)
			}
		}
	}
	return nil
}

// updateCellUnchecked replaces one cell, maintaining indexes on that
// column, without uniqueness checks: applyLocked checks first
// (checkUpdateUnique), and undo records and replay restore values that were
// valid when logged.
func (t *Table) updateCellUnchecked(slot, pos int, v Value) error {
	p, err := t.page(slot >> pageShift)
	if err != nil {
		return err
	}
	row := p.rows[slot&pageMask]
	old := row[pos]
	for _, idx := range t.indexes {
		if idx.pos != pos {
			continue
		}
		idx.removeSlot(old.Key(), slot)
		idx.addSlot(v.Key(), slot)
	}
	for _, ix := range t.ordIndexes {
		if ix.pos != pos {
			continue
		}
		ix.remove(old, slot)
		ix.insert(v, slot)
	}
	row[pos] = v
	delta := v.SizeBytes() - old.SizeBytes()
	t.dataBytes += delta
	p.bytes += delta
	t.markDirty(p)
	t.pager.resident.Add(int64(delta))
	return nil
}

// indexByPos returns the hash index over the column at pos, if any. The
// compiled hash join uses it as a prebuilt build table.
func (t *Table) indexByPos(pos int) *hashIndex {
	for _, idx := range t.indexes {
		if idx.pos == pos {
			return idx
		}
	}
	return nil
}

// lookup returns the row slots whose indexed column equals v. ok=false when
// no index exists or when the stored kinds could coerce against v in ways a
// key lookup cannot see — the caller must then fall back to a scan, which
// preserves SQL's coercing comparison semantics.
func (t *Table) lookup(column string, v Value) ([]int, bool) {
	idx, ok := t.indexes[column]
	if !ok {
		return nil, false
	}
	if v.IsNull() {
		return nil, true // equality with NULL matches nothing
	}
	return idx.eqSlots(v)
}

// scan invokes fn for every live row, faulting evicted pages in as it goes,
// and stops at the first error fn or a fault returns.
func (t *Table) scan(fn func(slot int, row []Value) error) error {
	for id := 0; id<<pageShift < t.nslots; id++ {
		p, err := t.page(id)
		if err != nil {
			return err
		}
		base := id << pageShift
		n := t.nslots - base
		if n > pageSlots {
			n = pageSlots
		}
		for i := 0; i < n; i++ {
			if row := p.rows[i]; row != nil {
				if err := fn(base+i, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// SizeBytes reports the table's live data size (payload bytes of live
// rows), independent of how much of it is resident.
func (t *Table) SizeBytes() int { return t.dataBytes }
