// Striped slot-lock table.
//
// Transactions claim row slots first-writer-wins (see session.go). The seed
// kept one lock map per table, guarded by the database-wide mutex — so every
// buffered transactional write serialized behind db.mu even though it only
// touches transaction-private state plus this one map. The locks now live in
// a fixed array of stripes with their own mutexes: claiming or probing a
// slot lock synchronizes only with the few claimants that hash to the same
// stripe, which lets transactional statements run under the database *read*
// lock and cuts the commit-path contention the ROADMAP's "lock-table
// granularity" item names. Stripe count is fixed (no resizing, no global
// rehash); the map inside each stripe stays small because locks exist only
// for slots written by open transactions.
package sqldb

import "sync"

// lockStripes is the fixed stripe count. Power of two, comfortably above
// the core counts this embedded DBMS targets, small enough that iterating
// every stripe (release on commit/rollback) stays cheap.
const lockStripes = 64

// slotKey identifies one lockable row slot. The table pointer (not the
// name) is the identity: a table dropped and re-created under the same name
// must never alias the old one's locks.
type slotKey struct {
	t    *Table
	slot int
}

type lockStripe struct {
	mu sync.Mutex
	m  map[slotKey]*Txn
}

// lockTable is the database-wide striped slot-lock registry.
type lockTable struct {
	stripes [lockStripes]lockStripe
}

func (lt *lockTable) stripe(t *Table, slot int) *lockStripe {
	h := t.lockSeed ^ (uint64(slot) * 0x9e3779b97f4a7c15)
	return &lt.stripes[h&(lockStripes-1)]
}

// tryLock claims (t, slot) for txn. Returns ok=false when another open
// transaction owns the slot (first writer wins); acquired=true when this
// call took a lock txn did not already hold — the caller unlocks exactly
// the acquired set when a later slot in the same statement conflicts.
func (lt *lockTable) tryLock(t *Table, slot int, txn *Txn) (ok, acquired bool) {
	s := lt.stripe(t, slot)
	s.mu.Lock()
	defer s.mu.Unlock()
	k := slotKey{t: t, slot: slot}
	owner := s.m[k]
	switch owner {
	case nil:
		if s.m == nil {
			s.m = make(map[slotKey]*Txn)
		}
		s.m[k] = txn
		return true, true
	case txn:
		return true, false
	default:
		return false, false
	}
}

// owner returns the transaction holding (t, slot), or nil.
func (lt *lockTable) owner(t *Table, slot int) *Txn {
	s := lt.stripe(t, slot)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[slotKey{t: t, slot: slot}]
}

// unlock releases (t, slot) if txn owns it.
func (lt *lockTable) unlock(t *Table, slot int, txn *Txn) {
	s := lt.stripe(t, slot)
	s.mu.Lock()
	if s.m[slotKey{t: t, slot: slot}] == txn {
		delete(s.m, slotKey{t: t, slot: slot})
	}
	s.mu.Unlock()
}
