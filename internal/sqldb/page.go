// Page-grouped row storage. A table's slot space is split into fixed-size
// groups of pageSlots rows ("pages"); slot s lives in page s>>pageShift at
// local index s&pageMask. Every table belongs to one buffer cache (its
// pager, see bufpool.go), and a durable database checkpoints its pages to
// per-page segment files (see ckpt_incremental.go). What a cache budget
// changes is only residency: under a budget a clean page may be evicted and
// faulted back from its segment on demand; without one (New, and Open
// without DurabilityOptions.Paged) every page stays materialized.
//
// Concurrency contract, inherited from DB: all mutation happens under
// db.mu's write side; reads run under the read side. Faulting a page in is
// a read-side operation (an atomic nil -> page CompareAndSwap), eviction is
// too (page -> nil) — the two can only race each other, never a mutator,
// and the loser of an install race simply discards its copy. A reader that
// obtained a page pointer before eviction keeps reading its private copy
// safely: eviction just drops the reference and the GC keeps it alive.
// Because of that, pages need no pin counts.
package sqldb

import (
	"fmt"
	"sync/atomic"
)

const (
	pageShift = 8
	pageSlots = 1 << pageShift // rows per page
	pageMask  = pageSlots - 1
)

// pageOverhead approximates the fixed memory cost of one materialized page
// (the slot array plus bookkeeping), charged against the cache budget so a
// budget is meaningful even for tables full of tiny rows.
const pageOverhead = pageSlots*24 + 128

// rowPage is one materialized page: a fixed array of row slices (nil =
// empty slot / tombstone) plus cache bookkeeping. The bool flags are only
// touched under db.mu's write side (mutators, checkpoint phases); ref is
// atomic because the read side bumps it.
type rowPage struct {
	rows [pageSlots][]Value
	// bytes is the payload size of the live rows on this page (sum of
	// Value.SizeBytes); live counts them. Maintained incrementally.
	bytes int
	live  int
	// dirty marks the page as modified since the last installed checkpoint:
	// its on-disk segment (if any) is stale, so it must not be evicted and
	// the next incremental checkpoint must rewrite it.
	dirty bool
	// flushing marks a page whose checkpoint image has been captured
	// (phase 1) but whose segment is not yet installed (phase 3). Eviction
	// skips it: a re-fault in the window would read the previous segment.
	flushing bool
	// hot marks an L1 (pinned) page: the clock sweep skips it until a
	// starved sweep demotes. Written under pager.mu.
	hot atomic.Bool
	// ref is the clock referenced counter: bumped on access, cleared by the
	// sweep. Crossing hotPromoteHits between sweeps promotes the page to L1.
	ref atomic.Int32
}

// pageDiskRec locates a page's current on-disk segment; file is "" when the
// page has never been checkpointed (or was empty at the last checkpoint).
type pageDiskRec struct {
	file  string
	bytes int64
}

// PageFaultError reports that a row page could not be read back from its
// on-disk segment. It is raised as a panic inside row access paths (which
// have no error returns) and converted back into an ordinary error at
// statement entry. A write that faults while staging applied nothing; like
// DurabilityError, a commit that faults while applying may have applied
// some of its effects in memory, and their redo is logged.
type PageFaultError struct {
	Table string
	Page  int
	Err   error
}

// Error implements the error interface.
func (e *PageFaultError) Error() string {
	return fmt.Sprintf("sqldb: faulting page %d of %s: %v", e.Page, e.Table, e.Err)
}

// Unwrap exposes the underlying I/O error.
func (e *PageFaultError) Unwrap() error { return e.Err }

// catchPageFault converts a PageFaultError panic raised by a row accessor
// into the deferred caller's error return. Any other panic propagates.
func catchPageFault(err *error) {
	if r := recover(); r != nil {
		pf, ok := r.(*PageFaultError)
		if !ok {
			panic(r)
		}
		*err = pf
	}
}

// slotCount is the table's slot-space size: every live row has slot <
// slotCount. (The last page may extend past it; those cells are unused.)
func (t *Table) slotCount() int { return t.nslots }

// page returns the materialized page id, faulting it in from disk when
// evicted. Callers hold db.mu (either side).
func (t *Table) page(id int) *rowPage {
	p := t.pages[id].Load()
	if p != nil {
		t.pager.hits.Add(1)
		if p.ref.Add(1) == hotPromoteHits {
			t.pager.promote(p)
		}
		return p
	}
	return t.faultPage(id)
}

// rowAt returns the row in slot (nil for an empty slot), faulting its page
// in if needed. Callers hold db.mu (either side).
func (t *Table) rowAt(slot int) []Value {
	return t.page(slot >> pageShift).rows[slot&pageMask]
}

// growTo extends the slot space to at least n slots, materializing fresh
// empty pages for any new page ids. Callers hold db.mu's write side.
func (t *Table) growTo(n int) {
	if n > t.nslots {
		t.nslots = n
	}
	want := (t.nslots + pageMask) >> pageShift
	for len(t.pages) < want {
		t.pages = append(t.pages, atomic.Pointer[rowPage]{})
		p := &rowPage{}
		t.pages[len(t.pages)-1].Store(p)
		t.pager.admit(t, len(t.pages)-1, p)
	}
	for len(t.disk) < len(t.pages) {
		t.disk = append(t.disk, pageDiskRec{})
	}
}

// markDirty flags a page as modified since the last checkpoint. Callers
// hold db.mu's write side.
func (t *Table) markDirty(p *rowPage) {
	if !p.dirty {
		p.dirty = true
		t.pager.dirtyPages.Add(1)
	}
}

// putRow stores a row into slot (which must be empty), growing the slot
// space as needed and maintaining size accounting and the dirty flag.
// Index maintenance is the caller's job. Callers hold db.mu's write side.
func (t *Table) putRow(slot int, row []Value) {
	t.growTo(slot + 1)
	p := t.page(slot >> pageShift)
	p.rows[slot&pageMask] = row
	p.live++
	sz := rowBytes(row)
	p.bytes += sz
	t.dataBytes += sz
	t.markDirty(p)
	t.pager.resident.Add(int64(sz))
}

// clearRow removes the row in slot from its page (which must be resident),
// maintaining accounting. Index maintenance is the caller's job.
func (t *Table) clearRow(p *rowPage, slot int) {
	row := p.rows[slot&pageMask]
	p.rows[slot&pageMask] = nil
	p.live--
	sz := rowBytes(row)
	p.bytes -= sz
	t.dataBytes -= sz
	t.markDirty(p)
	t.pager.resident.Add(int64(-sz))
}

// rowBytes is the payload size of one row, the unit of all byte accounting.
func rowBytes(row []Value) int {
	total := 0
	for _, v := range row {
		total += v.SizeBytes()
	}
	return total
}
