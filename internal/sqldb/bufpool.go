// The buffer cache every table's pages live in: a two-tier page cache under
// a byte budget. A database without a budget (New, or Open without
// DurabilityOptions.Paged) runs the same cache with the budget at
// unbounded, so nothing is ever evicted and no page ever faults.
//
//   - L2 is the bulk of the cache: every materialized page is registered in
//     a clock ring and evicted second-chance when the budget is exceeded.
//   - L1 is a small set of "hot" pages pinned against the clock: a page
//     whose referenced counter crosses hotPromoteHits between sweeps is
//     promoted and the sweep skips it, so a tight working set never churns
//     with the scan traffic washing through L2. A sweep that finds nothing
//     evictable demotes the hot set and retries, so L1 can never wedge the
//     cache.
//
// Policy is no-steal: only checkpoints write pages (ckpt_incremental.go),
// so eviction is just dropping the reference to a clean page — the segment
// on disk already holds its exact contents, and a fault that cannot read it
// returns a *PageFaultError to the statement that met it. Dirty (and
// flushing) pages are never evicted; when dirt alone exceeds the budget,
// the post-commit pressure path runs a checkpoint to clean them (see
// DB.cachePressure).
//
// Locking: pager.mu guards only the clock ring and the hot set. It is
// acquired with db.mu already held (either side), never the reverse, and —
// the invariant cryptdb-vet's lockorder pass checks — it is never held
// across file I/O, let alone an fsync: faults read segments before taking
// it, and eviction does no I/O at all.
package sqldb

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fsutil"
)

// hotPromoteHits is the referenced count that promotes a page into L1: it
// must be re-hit this many times between two clock sweeps.
const hotPromoteHits = 8

// defaultCacheBytes is the cache budget of a database opened with
// DurabilityOptions.Paged and CacheBytes left zero (64 MiB).
const defaultCacheBytes = 64 << 20

// unbounded is the budget of a cache that never evicts.
const unbounded = math.MaxInt64

// CacheStats reports buffer-cache activity.
type CacheStats struct {
	Hits          int64 // page accesses served by a materialized page
	Misses        int64 // page faults (segment reads)
	Evictions     int64 // clean pages dropped by the clock sweep
	ResidentBytes int64 // bytes currently charged against the cache budget
	BudgetBytes   int64 // the configured budget; 0 when the cache has none
	ResidentPages int64 // materialized pages
}

// pageRef is one clock-ring entry.
type pageRef struct {
	t  *Table
	id int
}

// pager is the buffer cache shared by every table of one DB.
type pager struct {
	fs     fsutil.FS
	dir    string // the pages/ directory holding segment files ("" in memory)
	budget int64
	l1Max  int64

	mu   sync.Mutex // ring + hot set; never held across I/O
	ring []pageRef
	hand int

	resident  atomic.Int64
	pages     atomic.Int64
	hotPages  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// fileSeq numbers segment files; segFiles maps every file the current
	// manifest references to its size, and diskBytes is their sum. All
	// three are guarded by db.mu's write side (checkpoint install / Open);
	// diskBytes is atomic so Stats can read it under the read side.
	fileSeq   uint64
	segFiles  map[string]int64
	diskBytes atomic.Int64
}

func newPager(fsys fsutil.FS, dir string, budget int64) *pager {
	pg := &pager{fs: fsys, dir: dir, budget: budget, segFiles: make(map[string]int64)}
	// L1 holds at most ~1/8 of the budget's worth of pages.
	pg.l1Max = budget / 8 / pageOverhead
	if pg.l1Max < 4 {
		pg.l1Max = 4
	}
	return pg
}

// memPager returns an unbounded cache with no directory: an in-memory
// database's (New), and the private one of the table that names a feed's
// columns for one statement (scope.addFeed), whose pages must stay out of
// the database's clock ring, since only eviction and DROP TABLE prune its
// entries.
func memPager() *pager { return newPager(nil, "", unbounded) }

func (pg *pager) stats() CacheStats {
	budget := pg.budget
	if budget == unbounded {
		budget = 0 // 0 means no budget: the cache never evicts
	}
	return CacheStats{
		Hits:          pg.hits.Load(),
		Misses:        pg.misses.Load(),
		Evictions:     pg.evictions.Load(),
		ResidentBytes: pg.resident.Load(),
		BudgetBytes:   budget,
		ResidentPages: pg.pages.Load(),
	}
}

// admit registers a newly materialized page in the clock ring and charges
// it against the budget. Callers hold db.mu (either side).
func (pg *pager) admit(t *Table, id int, p *rowPage) {
	pg.resident.Add(int64(p.bytes + pageOverhead))
	pg.pages.Add(1)
	pg.mu.Lock()
	pg.ring = append(pg.ring, pageRef{t: t, id: id})
	pg.mu.Unlock()
}

// promote pins a page into L1 if there is room.
func (pg *pager) promote(p *rowPage) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if !p.hot.Load() && pg.hotPages.Load() < pg.l1Max {
		p.hot.Store(true)
		pg.hotPages.Add(1)
	}
}

// forget uncharges one resident page (eviction, drop, or reset).
func (pg *pager) forget(p *rowPage) {
	pg.resident.Add(int64(-(p.bytes + pageOverhead)))
	pg.pages.Add(-1)
	if p.hot.Load() {
		p.hot.Store(false)
		pg.hotPages.Add(-1)
	}
	p.dirty = false
}

// forgetTable uncharges every resident page of a table being dropped or
// swapped out, removes its ring entries (an unbounded cache never sweeps,
// so a stale entry would pin the table in memory) and marks it dropped for
// a checkpoint still writing its pages. Callers hold db.mu's write side.
func (pg *pager) forgetTable(t *Table) {
	t.dropped = true
	for i := range t.pages {
		if p := t.pages[i].Load(); p != nil {
			pg.forget(p)
		}
	}
	pg.mu.Lock()
	defer pg.mu.Unlock()
	kept := pg.ring[:0]
	for i, ref := range pg.ring {
		if ref.t != t {
			kept = append(kept, ref)
		} else if i < pg.hand {
			pg.hand--
		}
	}
	clear(pg.ring[len(kept):])
	pg.ring = kept
}

// evictToBudget sweeps the clock until resident bytes fit the budget or
// nothing more is evictable (everything left is dirty, flushing, or hot —
// and a starved sweep demotes the hot set before giving up). Callers hold
// db.mu (either side); eviction does no I/O.
func (pg *pager) evictToBudget() { pg.evictToBudgetExcept(nil) }

// evictToBudgetExcept is evictToBudget with one page exempted from the
// sweep: a fault passes the page it is installing, which is still clean and
// unreferenced — evicting it would hand the caller an orphaned page whose
// mutations silently vanish.
func (pg *pager) evictToBudgetExcept(except *rowPage) {
	if pg.resident.Load() <= pg.budget {
		return
	}
	pg.mu.Lock()
	defer pg.mu.Unlock()
	// Two full revolutions bound the sweep: the first clears referenced
	// bits, the second evicts. A third pass only happens after demotion.
	demoted := false
	progress := 0
	limit := 2*len(pg.ring) + 2
	for pg.resident.Load() > pg.budget && len(pg.ring) > 0 {
		if pg.hand >= len(pg.ring) {
			if progress == 0 {
				if demoted {
					return // only dirty/flushing pages remain
				}
				for _, ref := range pg.ring {
					if p := ref.t.pages[ref.id].Load(); p != nil && p.hot.Load() {
						p.hot.Store(false)
						p.ref.Store(0)
						pg.hotPages.Add(-1)
					}
				}
				demoted = true
				limit = 2*len(pg.ring) + 2
			}
			pg.hand = 0
			progress = 0
		}
		if limit--; limit < 0 {
			return
		}
		ref := pg.ring[pg.hand]
		p := ref.t.pages[ref.id].Load()
		if p == nil {
			pg.removeRingAt(pg.hand)
			progress++
			continue
		}
		if p == except {
			pg.hand++
			continue
		}
		if p.hot.Load() {
			pg.hand++
			continue
		}
		if p.ref.Load() != 0 {
			p.ref.Store(0)
			pg.hand++
			continue
		}
		if p.dirty || p.flushing {
			pg.hand++
			continue
		}
		// Clean, cold, unreferenced: drop it. The CAS can only lose to a
		// concurrent fault re-installing the same id, in which case the
		// ring entry still stands for the new page.
		if ref.t.pages[ref.id].CompareAndSwap(p, nil) {
			pg.forget(p)
			pg.evictions.Add(1)
			pg.removeRingAt(pg.hand)
			progress++
		} else {
			pg.hand++
		}
	}
}

// removeRingAt drops one ring entry, keeping the hand consistent.
func (pg *pager) removeRingAt(i int) {
	pg.ring = append(pg.ring[:i], pg.ring[i+1:]...)
	if pg.hand > i {
		pg.hand--
	}
}

// faultPage materializes an evicted page from its on-disk segment. Callers
// hold db.mu (either side); a read failure returns a *PageFaultError and
// installs nothing.
func (t *Table) faultPage(id int) (*rowPage, error) {
	pg := t.pager
	pg.misses.Add(1)
	var p *rowPage
	if rec := t.disk[id]; rec.file == "" {
		p = &rowPage{} // never checkpointed with rows: an empty page
	} else {
		data, err := pg.fs.ReadFile(filepath.Join(pg.dir, rec.file))
		if err == nil {
			p, err = decodeSegment(data, t, id)
		}
		if err != nil {
			return nil, &PageFaultError{Table: t.Name, Page: id, Err: err}
		}
	}
	for !t.pages[id].CompareAndSwap(nil, p) {
		// Lost an install race: use the winner's page — unless a sweep has
		// already evicted it again, in which case install ours after all (it
		// is still exact: nothing mutates a page while a reader holds db.mu).
		if w := t.pages[id].Load(); w != nil {
			return w, nil
		}
	}
	pg.admit(t, id, p)
	pg.evictToBudgetExcept(p)
	return p, nil
}

// cachePressure bounds resident bytes after a commit: evict what is clean;
// if dirt alone still exceeds the budget, checkpoint (cleaning every page)
// and evict again. Runs without db.mu held; the checkpoint is the honest
// backpressure of a write working set larger than the cache.
func (db *DB) cachePressure() {
	pg := db.pager
	if pg.resident.Load() <= pg.budget {
		return
	}
	db.mu.RLock()
	pg.evictToBudget()
	db.mu.RUnlock()
	if pg.resident.Load() > pg.budget {
		if err := db.Checkpoint(); err != nil {
			return // WAL intact; retry on the next commit
		}
		db.mu.RLock()
		pg.evictToBudget()
		db.mu.RUnlock()
	}
}

// Paged reports whether rows are checkpointed to per-page segment files:
// true for every database Open returns, false for New's in-memory one.
func (db *DB) Paged() bool { return db.pager.dir != "" }
