package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteFileAtomic persists data at path so a crash at any instant leaves
// either the previous file or the complete new one: temp file in the
// same directory, write, fsync, close, rename. Every step's failure is
// reported under its own name; callers add which file they were writing.
// It is the one durability primitive under the cluster manifest, which
// holds a whole checkpoint generation in one file.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("creating temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("writing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("syncing %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("renaming %s into place: %w", tmp.Name(), err)
	}
	return nil
}

// RemoveStaleTemps deletes the temp files WriteFileAtomic(path, …) left
// behind when a crash cut it short: the files in path's directory whose
// names start with path's base name followed by ".tmp". Nothing else in
// the directory is touched. Call it before any write to path is under way,
// since it cannot tell a stale temp file from a live one.
func RemoveStaleTemps(path string) error {
	dir, prefix := filepath.Dir(path), filepath.Base(path)+".tmp"
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.Type().IsRegular() && strings.HasPrefix(ent.Name(), prefix) {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}
