package ckpt

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestWriterRunsInOrder proves jobs flushed by SubmitWait execute in
// submission order: the sync barrier at the end observes every prior
// async write already applied.
func TestWriterRunsInOrder(t *testing.T) {
	w := NewWriter(nil)
	defer w.Close()

	var mu sync.Mutex
	var got []int
	record := func(n int) func() error {
		return func() error {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
			return nil
		}
	}
	if err := w.SubmitWait(record(1)); err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if err := w.SubmitWait(record(2)); err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if err := w.SubmitWait(record(3)); err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", got)
	}
}

// TestWriterLatestWins proves an unstarted async job is replaced by a
// newer submission and counted as dropped, while the in-flight job is
// never abandoned.
func TestWriterLatestWins(t *testing.T) {
	w := NewWriter(nil)
	defer w.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := w.Submit(func() error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started // writer is busy; next submissions queue behind it

	var mu sync.Mutex
	var ran []int
	for i := 1; i <= 3; i++ {
		i := i
		if err := w.Submit(func() error {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	close(block)
	w.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != 3 {
		t.Fatalf("ran = %v, want only the latest job [3]", ran)
	}
	if d := w.Dropped(); d != 2 {
		t.Fatalf("Dropped = %d, want 2", d)
	}
}

// TestWriterSubmitWaitFlushesAsync proves a SubmitWait behind a queued
// async job lets that job run first (it is not superseded by the sync
// one — supersession only replaces the pending slot, and the async job
// already started by then or runs before the sync one is taken).
func TestWriterSubmitWaitSupersedesPendingAsync(t *testing.T) {
	w := NewWriter(nil)
	defer w.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := w.Submit(func() error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	var asyncRan bool
	if err := w.Submit(func() error { asyncRan = true; return nil }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	syncDone := make(chan error, 1)
	go func() {
		syncDone <- w.SubmitWait(func() error { return nil })
	}()
	// The sync job replaces the queued async one (latest wins) and the
	// drop counter records it.
	for w.Dropped() != 1 {
	}
	close(block)
	if err := <-syncDone; err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if asyncRan {
		t.Fatal("superseded async job ran anyway")
	}
}

// TestWriterCloseFlushesPending proves Close executes the last queued
// write before stopping.
func TestWriterCloseFlushesPending(t *testing.T) {
	w := NewWriter(nil)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := w.Submit(func() error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	var ran bool
	if err := w.Submit(func() error { ran = true; return nil }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	close(block)
	w.Close()
	if !ran {
		t.Fatal("pending job dropped by Close")
	}
	if err := w.Submit(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := w.SubmitWait(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitWait after Close = %v, want ErrClosed", err)
	}
	w.Close() // idempotent
}

// TestWriterSubmitWaitError proves write failures reach the waiter.
func TestWriterSubmitWaitError(t *testing.T) {
	w := NewWriter(nil)
	defer w.Close()
	boom := errors.New("disk full")
	if err := w.SubmitWait(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("SubmitWait = %v, want %v", err, boom)
	}
}

// TestWriterSupersededSyncWaiterUnblocked proves a queued sync job
// replaced by a newer one gets ErrSuperseded instead of hanging.
func TestWriterSupersededSyncWaiterUnblocked(t *testing.T) {
	w := NewWriter(nil)
	defer w.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	if err := w.Submit(func() error {
		close(started)
		<-block
		return nil
	}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started

	first := make(chan error, 1)
	go func() { first <- w.SubmitWait(func() error { return nil }) }()
	// Wait until the first sync job occupies the pending slot, then
	// replace it.
	for {
		w.mu.Lock()
		queued := w.pending != nil
		w.mu.Unlock()
		if queued {
			break
		}
	}
	second := make(chan error, 1)
	go func() { second <- w.SubmitWait(func() error { return nil }) }()
	if err := <-first; !errors.Is(err, ErrSuperseded) {
		t.Fatalf("first SubmitWait = %v, want ErrSuperseded", err)
	}
	close(block)
	if err := <-second; err != nil {
		t.Fatalf("second SubmitWait = %v", err)
	}
}

// TestWriteFileAtomic: the new bytes replace the old in one step, no
// temp file survives, and a failed write leaves the previous file alone.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, body := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read back %q (%v), want %q", got, err, body)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want only the file", len(entries))
	}
	missing := filepath.Join(dir, "no-such-dir", "state.json")
	if err := WriteFileAtomic(missing, []byte("x")); err == nil || !strings.Contains(err.Error(), "creating temp file") {
		t.Fatalf("write into a missing directory: %v, want a temp-file error", err)
	}
}
