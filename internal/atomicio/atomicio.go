// Package atomicio writes run artifacts (checkpoints, report manifests,
// metrics dumps) atomically: content goes to a temp file in the
// destination directory, is fsynced, and is renamed over the target.
// A crash at any point leaves either the previous complete file or no
// file — never a truncated-but-parseable artifact. It is the single
// sanctioned write path for artifacts; the root lint test bans raw
// os.Rename / os.Create for them elsewhere.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The temp file lives next to path (rename must not cross filesystems)
// and is removed on any failure. The file is fsynced before the rename
// and the directory after it, so the replacement survives power loss on
// POSIX filesystems; directory-sync failure is ignored (not all
// filesystems support it).
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("atomicio: %w", err)
	}
	syncDir(dir)
	return nil
}

// WriteFileBytes is WriteFile for a pre-rendered buffer.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Rename atomically renames old to new, syncing the containing directory
// afterwards. It exists so artifact-rotation call sites (checkpoint
// generation rotation) share one durable rename path.
func Rename(oldPath, newPath string) error {
	if err := os.Rename(oldPath, newPath); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	syncDir(filepath.Dir(newPath))
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable. Errors are
// deliberately dropped: some filesystems (and most CI tmpfs mounts)
// reject directory fsync, and the rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
