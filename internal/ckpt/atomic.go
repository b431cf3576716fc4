package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
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
