package proxy

// Batched, parallel crypto pipeline (§3.1: "AVL binary search trees for
// batch encryption, e.g., database loads"). Multi-row INSERTs first feed
// each column's Ord-onion plaintexts through ope.EncryptBatch so the sorted
// traversal shares node-cache prefixes, then fan the remaining per-row
// onion work (DET/RND/JOIN-ADJ/SEARCH/HOM) across a bounded worker pool.
// Result-set decryption gets the same row-parallel treatment. Output
// ordering is deterministic: workers write results by row index, and the
// lowest-index error wins.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/onion"
	"repro/internal/sqldb"
)

// batchWorkers resolves Options.BatchWorkers to the effective pool size.
func (p *Proxy) batchWorkers() int {
	if n := p.opts.BatchWorkers; n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEachRow runs fn(i) for i in [0, n), fanning across at most workers
// goroutines. Results must be written by index inside fn, which keeps row
// ordering deterministic regardless of scheduling; when several rows fail,
// the lowest-index error is returned, matching the serial path.
func forEachRow(workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     int64 = -1
		failed   atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// Rows are claimed in ascending index order, so the lowest-index
	// failing row is always claimed (and its error recorded) before the
	// bail-out flag can stop anything at or below it: the error returned
	// matches the serial path's.
	return firstErr
}

// opePlaintexts encodes a column's non-NULL values for ope.EncryptBatch.
// Values that fail to coerce or encode are skipped here and reported by the
// per-row path, which keeps error attribution identical to the serial
// pipeline.
func opePlaintexts(cm *ColumnMeta, n int, at func(i int) sqldb.Value) []uint64 {
	ms := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := at(i)
		if v.IsNull() {
			continue
		}
		coerced, err := coerceToColumn(cm, v)
		if err != nil {
			continue
		}
		m, err := opeEncode(coerced)
		if err != nil {
			continue
		}
		ms = append(ms, m)
	}
	return ms
}

// prewarmOPE batch-encrypts every Ord-onion plaintext of a multi-row INSERT
// so the per-row workers hit the OPE leaf cache instead of walking the tree
// independently. Sorting happens inside EncryptBatch. Columns whose Ord
// onion is not written (discarded or deferred) are skipped.
func (p *Proxy) prewarmOPE(colMeta []*ColumnMeta, rows [][]sqldb.Value) {
	if p.opts.DisableOPECache || len(rows) < 2 {
		return
	}
	type job struct {
		cm *ColumnMeta
		ms []uint64
	}
	var jobs []job
	for ci, cm := range colMeta {
		if cm.Plain || cm.EncFor != nil || !cm.present(onion.Ord) {
			continue
		}
		ms := opePlaintexts(cm, len(rows), func(i int) sqldb.Value { return rows[i][ci] })
		if len(ms) >= 2 {
			jobs = append(jobs, job{cm: cm, ms: ms})
		}
	}
	// Columns batch independently; each column's sorted pass stays serial
	// to preserve prefix sharing. Errors (domain overflow) surface from the
	// per-row path with proper row context; the pre-pass is a cache warmer.
	_ = forEachRow(p.batchWorkers(), len(jobs), func(i int) error {
		_, _ = p.opeCipher(jobs[i].cm).EncryptBatch(jobs[i].ms)
		return nil
	})
}
