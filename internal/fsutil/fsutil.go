// Package fsutil is the one file interface every durable byte goes
// through: the WAL, page segments and manifests of internal/sqldb, the
// sharded store's manifest and the proxy's key file. FS and File cover the
// calls the durability layer makes; OS is the only production
// implementation, and tests substitute one that injects faults.
//
// The package also owns the write-temp → sync → rename → sync-dir
// sequence (Install) that makes a file replacement crash-atomic AND
// durable. os.WriteFile alone is neither: without an fsync the rename can
// be durable while the bytes are not, and a crash leaves a valid-looking
// empty file — which for a shard manifest silently misroutes every row.
package fsutil

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is an open file.
type File interface {
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FS is a file system.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making a completed rename or create
	// inside it durable.
	SyncDir(dir string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }

// SyncDir errors are real: a missing directory or an EIO on the sync
// means the rename may not survive a crash.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsutil: opening dir for sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("fsutil: syncing dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("fsutil: closing dir %s: %w", dir, cerr)
	}
	return nil
}

// create writes data to a new (or truncated) file at path, fsyncing it
// when sync is set, and returns it open and positioned after data. On
// error the file is removed.
func create(fsys FS, path string, data []byte, sync bool) (File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("fsutil: creating %s: %w", path, err)
	}
	if _, err = f.Write(data); err == nil && sync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		fsys.Remove(path)
		return nil, fmt.Errorf("fsutil: writing %s: %w", path, err)
	}
	return f, nil
}

// WriteFile creates path holding data, fsynced when sync is set, for a
// file written once under a name nothing references yet (a page segment):
// it needs no rename, and the caller syncs the directory. Every error,
// Close's included, is returned, and the partial file removed.
func WriteFile(fsys FS, path string, data []byte, sync bool) error {
	f, err := create(fsys, path, data, sync)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return fmt.Errorf("fsutil: closing %s: %w", path, err)
	}
	return nil
}

// Install atomically replaces path with data: write path.tmp, fsync it,
// rename it over path, fsync the directory. Without sync both fsyncs are
// skipped, so the replacement stays atomic but a machine crash may undo
// it. It returns the installed file still open and positioned after data,
// for a log that keeps appending to it.
func Install(fsys FS, path string, data []byte, sync bool) (File, error) {
	tmp := path + ".tmp"
	f, err := create(fsys, tmp, data, sync)
	if err != nil {
		return nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, fmt.Errorf("fsutil: installing %s: %w", path, err)
	}
	if sync {
		if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// InstallFile is Install for a file nothing appends to: it closes the
// installed file, returning Close's error too.
func InstallFile(fsys FS, path string, data []byte, sync bool) error {
	f, err := Install(fsys, path, data, sync)
	if err != nil {
		return err
	}
	return f.Close()
}
