// Package atomicio provides atomic file writes for the repo's artifact
// writers (experiment JSON, validation scorecards, metrics exports,
// generated traces). A plain os.Create + write sequence interrupted by an
// error or a signal leaves a corrupt partial file in place of whatever was
// there before; WriteFile instead streams into a temporary file in the
// destination directory and renames it over the target only after the
// write (and an fsync) succeeded, so readers observe either the old
// complete artifact or the new complete artifact, never a torn one.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes write produces. The
// data is streamed into a hidden temporary file in path's directory (same
// filesystem, so the final rename is atomic), fsynced, and renamed into
// place; on any error the temporary file is removed and the previous
// contents of path are left untouched. The final file mode is 0644 before
// umask on creation; an existing file keeps its mode.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("atomicio: %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: %s: %w", path, err)
	}
	// CreateTemp creates 0600; widen to the mode os.Create would have used
	// unless the target already exists (the rename keeps the target's inode
	// gone but its old mode is the least surprising one to preserve).
	mode := os.FileMode(0o644)
	if st, serr := os.Stat(path); serr == nil {
		mode = st.Mode().Perm()
	}
	if err = tmp.Chmod(mode); err != nil {
		return fmt.Errorf("atomicio: %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}
