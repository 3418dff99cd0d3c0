package atomicio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeFileBytes atomically replaces path with data.
func writeFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// TestWriteFileCreates: a successful write lands the full contents at the
// target path and leaves no temporary residue in the directory.
func TestWriteFileCreates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := writeFileBytes(path, []byte("{\"ok\":true}\n")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{\"ok\":true}\n" {
		t.Fatalf("contents %q", got)
	}
	assertNoResidue(t, dir, 1)
}

// TestWriteFileErrorPreservesOld: a mid-write error must leave the
// previous artifact byte-identical and clean up the temporary file — the
// torn-write bug this package exists to fix.
func TestWriteFileErrorPreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scorecard.json")
	if err := writeFileBytes(path, []byte("old complete artifact")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "new partial art"); err != nil {
			return err
		}
		return boom // die mid-write, bytes already buffered
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(got) != "old complete artifact" {
		t.Fatalf("old artifact torn: %q", got)
	}
	assertNoResidue(t, dir, 1)
}

// TestWriteFileErrorNoFile: when the target did not exist, a failed write
// must not create it.
func TestWriteFileErrorNoFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "never.json")
	err := WriteFile(path, func(io.Writer) error { return errors.New("nope") })
	if err == nil {
		t.Fatal("expected error")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("failed write created the target: %v", serr)
	}
	assertNoResidue(t, dir, 0)
}

// TestWriteFilePreservesMode: replacing an existing artifact keeps its
// permission bits.
func TestWriteFilePreservesMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exec.sh")
	if err := os.WriteFile(path, []byte("#!/bin/sh\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileBytes(path, []byte("#!/bin/sh\necho hi\n")); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o755 {
		t.Fatalf("mode %v, want 0755", st.Mode().Perm())
	}
}

// assertNoResidue fails if dir holds anything beyond want entries (the
// target file, when it exists).
func assertNoResidue(t *testing.T, dir string, want int) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != want {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory residue: %v", names)
	}
}
