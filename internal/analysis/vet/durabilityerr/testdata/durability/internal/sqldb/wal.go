// Package sqldb holds the seeded durability error-handling bugs for the
// durabilityerr golden test — a dropped Sync, a deferred Close on a
// write-opened file (through os and through fsutil), a blank-discarded
// Marshal, a shadowed error — next to the fixed forms and sanctioned
// idioms the analyzer must accept.
package sqldb

import (
	"encoding/json"
	"hash/fnv"
	"os"

	"fixture/internal/fsutil"
)

type walWriter struct {
	f *os.File
}

// flushDropped drops the Sync error outright: "the frame is on disk"
// silently becomes "the frame is probably on disk".
func (w *walWriter) flushDropped(frame []byte) error {
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	w.f.Sync() // want "error from Sync dropped on a durability path"
	return nil
}

// flushChecked is the fixed form.
func (w *walWriter) flushChecked(frame []byte) error {
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	return w.f.Sync()
}

// snapshotDeferred lets the deferred Close swallow delayed write errors.
func snapshotDeferred(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // want "deferred Close on write-opened file f discards the error"
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// segmentDeferred is snapshotDeferred behind the file interface.
func segmentDeferred(fsys fsutil.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return err
	}
	defer f.Close() // want "deferred Close on write-opened file f discards the error"
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Sync()
}

// logDeferred defers the Close of a file Install left open.
func logDeferred(fsys fsutil.FS, path string, data []byte) error {
	f, err := fsutil.Install(fsys, path, data)
	if err != nil {
		return err
	}
	defer f.Close() // want "deferred Close on write-opened file f discards the error"
	return f.Sync()
}

// installFile is the fixed form: explicit Close with the error checked,
// and best-effort cleanup Closes tolerated on paths that already return
// a non-nil error.
func installFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// persistManifest blank-discards the Marshal error: a swallowed failure
// persists an empty manifest.
func persistManifest(path string) error {
	data, _ := json.Marshal(map[string]int{"shards": 4}) // want "error from Marshal discarded with _ on a durability path"
	return os.WriteFile(path, data, 0o600)
}

// closeBoth overwrites the first Sync's error before anyone reads it.
func closeBoth(a, b *os.File) error {
	var err error
	err = a.Sync()
	err = b.Sync() // want "assignment shadows unchecked error err set at line"
	return err
}

// releaseLock mirrors the real repo's sanctioned exception: the lock
// file carries no data, and the justified annotation suppresses the
// finding.
func releaseLock(f *os.File) {
	//cryptdb:vet-ok durabilityerr: fixture mirror of the lock-file release exception
	f.Close()
}

// checksum writes into an in-memory hash: that Write cannot lose
// durable state and stays exempt.
func checksum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}
