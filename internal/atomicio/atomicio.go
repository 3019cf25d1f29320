// Package atomicio writes files atomically: content is staged in a
// temporary file in the destination directory and renamed into place, so a
// crash — or a supervisor SIGKILL — at any instant leaves either the
// complete previous file or the complete new one, never a torn artifact.
// Result summaries, checkpoints, and flight-recorder dumps all go through
// here; a resuming supervisor can therefore trust any file it finds, and
// an existing summary file proves its run finished.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// File is a WriteCloser that stages writes in a temporary file and
// renames it over the destination on Close.
type File struct {
	f    *os.File
	path string
	done bool
}

// Create starts an atomic write to path. The temporary file lives in
// path's directory so the final rename never crosses filesystems.
func Create(path string) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path}, nil
}

// Write appends to the staged file.
func (a *File) Write(p []byte) (int, error) { return a.f.Write(p) }

// Close publishes the staged content: sync, close, rename. On any error
// the temporary file is removed and the destination is untouched.
func (a *File) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return nil
}

// Abort discards the staged content without touching the destination.
// Calling Close afterwards is a no-op.
func (a *File) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// WriteFile atomically replaces path with data.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	a, err := Create(path)
	if err != nil {
		return err
	}
	if err := a.f.Chmod(perm); err != nil {
		a.Abort()
		return err
	}
	if _, err := a.Write(data); err != nil {
		a.Abort()
		return fmt.Errorf("atomicio: staging %s: %w", path, err)
	}
	return a.Close()
}
