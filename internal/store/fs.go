package store

import (
	"fmt"
	"io/fs"
	"os"
)

// FS is the filesystem surface the log touches. Every byte the WAL and
// snapshot code reads or writes flows through one of these methods, so a
// fault-injecting implementation (netsim.FaultFS) can model a sick disk —
// fsync errors, short writes, read-path bit-rot, torn renames, a process
// crash mid-write — without the log knowing. The default implementation (OSFS) delegates straight to the
// os package.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	// OpenFile opens a file for writing/appending; the log never reads
	// through the returned handle (reads go through ReadFile).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory so renames within it are durable.
	SyncDir(path string) error
}

// File is the writable handle an FS hands out.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production filesystem backend (direct os calls).
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error     { return os.Truncate(path, size) }

func (osFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: opening dir for sync: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return cerr
}
