// Package store holds the seeded locking violations for the lockorder
// golden test — an acquisition-order cycle, a reader-writer lock held
// across fsync (through os and through fsutil), by-value mutex copies, a
// mixed atomic/plain field — next to the fixed and policy-exempt forms the
// analyzer must stay silent on.
package store

import (
	"os"
	"sync"
	"sync/atomic"

	"fixture/internal/fsutil"
)

// Engine carries the fixture's locks.
type Engine struct {
	mu     sync.Mutex
	metaMu sync.Mutex
	rw     sync.RWMutex
	n      int
}

// lockAB acquires mu then metaMu; lockBA does the reverse — together a
// cycle in the global acquisition graph, reported at each edge.
func (e *Engine) lockAB() {
	e.mu.Lock()
	e.metaMu.Lock() // want "lock acquisition order cycle"
	e.metaMu.Unlock()
	e.mu.Unlock()
}

func (e *Engine) lockBA() {
	e.metaMu.Lock()
	e.mu.Lock() // want "lock acquisition order cycle"
	e.mu.Unlock()
	e.metaMu.Unlock()
}

// badCommit pays the fsync while holding a lock readers share.
func (e *Engine) badCommit(f *os.File) error {
	e.rw.Lock()
	defer e.rw.Unlock()
	return f.Sync() // want "lock rw .* held across fsync"
}

// seamCommit pays the same fsync behind the file interface.
func (e *Engine) seamCommit(f fsutil.File) error {
	e.rw.Lock()
	defer e.rw.Unlock()
	return f.Sync() // want "lock rw .* held across fsync"
}

// seamInstall syncs a directory under the shared lock.
func (e *Engine) seamInstall(fsys fsutil.FS, dir string) error {
	e.rw.Lock()
	defer e.rw.Unlock()
	return fsys.SyncDir(dir) // want "lock rw .* held across fsync"
}

// stagedCommit is the fixed form: stage under the lock, sync off it.
func (e *Engine) stagedCommit(f *os.File) error {
	e.rw.Lock()
	e.n++
	e.rw.Unlock()
	return f.Sync()
}

// ownPipeline is exempt by policy: a plain Mutex serializes only its
// owner's pipeline, so the fsync stalls nobody else.
func (e *Engine) ownPipeline(f *os.File) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return f.Sync()
}

// quiesce mirrors the real repo's checkpoint exception: holding the
// reader-writer lock across the snapshot fsync is the point, and the
// justified annotation suppresses the finding.
func (e *Engine) quiesce(f *os.File) error {
	e.rw.Lock()
	defer e.rw.Unlock()
	//cryptdb:vet-ok lockorder: fixture mirror of the checkpoint quiesce exception
	return f.Sync()
}

// snapshotByValue copies the whole engine, mutexes included.
func snapshotByValue(e Engine) int { // want "parameter copies mutex-bearing struct Engine"
	return e.n
}

// deref copies an engine out of its pointer.
func deref(e *Engine) int {
	cp := *e // want "assignment copies mutex-bearing struct Engine"
	return cp.n
}

// rangeCopy copies each element while iterating.
func rangeCopy(engines []Engine) int {
	total := 0
	for _, ev := range engines { // want "range value copies mutex-bearing struct Engine"
		total += ev.n
	}
	return total
}

// spawnUnderLock launches a worker that reacquires the lock the spawner
// still holds — the worker-pool handoff deadlock (a queued writer wedges
// the pair even when both sides only read).
func (e *Engine) spawnUnderLock() {
	e.rw.RLock()
	done := make(chan struct{})
	go func() {
		e.rw.RLock() // want "goroutine spawned while rw .* is held may reacquire it"
		e.rw.RUnlock()
		close(done)
	}()
	<-done
	e.rw.RUnlock()
}

// reacquire is a named helper that takes the lock; spawning it under the
// same lock is the same hazard through a static call.
func (e *Engine) reacquire() {
	e.rw.RLock()
	e.rw.RUnlock()
}

func (e *Engine) spawnHelperUnderLock() {
	e.rw.RLock()
	go e.reacquire() // want "goroutine spawned while rw .* is held may reacquire it"
	e.rw.RUnlock()
}

// spawnOffLock is the fixed worker-pool form: workers run under the
// spawner's lock but never touch it themselves.
func (e *Engine) spawnOffLock() {
	e.rw.RLock()
	done := make(chan struct{})
	go func() {
		_ = e.n
		close(done)
	}()
	<-done
	e.rw.RUnlock()
}

// stats mixes an atomic increment with a plain read of the same field.
type stats struct {
	commits int64
}

func (s *stats) inc() { atomic.AddInt64(&s.commits, 1) }

func (s *stats) racyRead() int64 {
	return s.commits // want "field commits is accessed with sync/atomic elsewhere"
}

// safeRead is the fixed form.
func (s *stats) safeRead() int64 {
	return atomic.LoadInt64(&s.commits)
}
