package wal

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// File is the subset of *os.File the WAL writes through. Every byte the log
// or snapshot store touches goes through this interface, so tests can wrap
// the real filesystem with deterministic fault injection (internal/sim/errfs)
// without changing any durability code path.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Sync() error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem seam for the WAL and snapshot store. The default
// implementation is the real OS filesystem (OS); Options.FS and the engine's
// DurabilityConfig.FS inject alternatives.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Truncate(name string, size int64) error
}

// OS is the real operating-system filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// fsOrOS resolves a possibly-nil FS to the real filesystem.
func fsOrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// ReadFileFS reads a whole file through fsys (the FS analogue of
// os.ReadFile). The engine uses it for small control files (shard guard,
// quarantine markers) so those reads share the injectable seam.
func ReadFileFS(fsys FS, name string) ([]byte, error) {
	f, err := fsOrOS(fsys).OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileFS writes (and fsyncs) a whole file through fsys. Unlike
// os.WriteFile it syncs before returning: the callers are durability control
// files whose presence must survive a crash.
func WriteFileFS(fsys FS, name string, data []byte, perm os.FileMode) error {
	f, err := fsOrOS(fsys).OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// IsTransient classifies a durability error as retryable. An error is
// transient when any error in its chain declares Temporary() true (the
// convention errfs-injected faults and net errors follow), or when it is a
// retry-at-will syscall error. Everything else — ENOSPC, EIO, permission
// failures, corruption — is permanent: retrying cannot help and the caller
// must quarantine the shard whose log failed (the engine fail-stops only
// when every shard is down).
func IsTransient(err error) bool {
	var t interface{ Temporary() bool }
	if errors.As(err, &t) {
		return t.Temporary()
	}
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}
