// Package fsutil mirrors the real repo's file interface, for the fsyncs
// the analyzer must recognize behind it.
package fsutil

// File is an open file.
type File interface {
	Sync() error
}

// FS is a file system.
type FS interface {
	SyncDir(dir string) error
}
