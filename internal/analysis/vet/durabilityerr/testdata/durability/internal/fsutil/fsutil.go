// Package fsutil mirrors the real repo's file interface, for the writing
// opens the analyzer must recognize behind it.
package fsutil

import "os"

// File is an open file.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is a file system.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
}

// Install replaces path with data and returns the file still open.
func Install(fsys FS, path string, data []byte) (File, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
