package serve

import (
	"runtime"
	"testing"
)

// TestRingFIFO pins the single-goroutine contract: entries pop in push
// order, capacity rounds up to a power of two, and a full ring refuses
// pushes without losing anything.
func TestRingFIFO(t *testing.T) {
	r := newIngestRing(3)
	if r.Cap() != 4 {
		t.Fatalf("capacity 3 rounded to %d, want 4", r.Cap())
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(ingestEntry{seq: uint64(i)}) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if r.TryPush(ingestEntry{seq: 99}) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("full ring len %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		e, ok := r.TryPop()
		if !ok || e.seq != uint64(i) {
			t.Fatalf("pop %d = (%v, %v), want seq %d", i, e.seq, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

// TestRingSPSCNoDropNoDup is the concurrency property test (run under
// -race by the CI race job): with exactly one producer and one consumer
// the ring delivers every entry exactly once, in order, below capacity.
func TestRingSPSCNoDropNoDup(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	r := newIngestRing(64)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			for !r.TryPush(ingestEntry{seq: uint64(i)}) {
				// Yield while full: on one CPU a pure spin starves the
				// consumer for whole scheduling quanta.
				runtime.Gosched()
			}
		}
		done <- nil
	}()
	for i := 0; i < n; {
		e, ok := r.TryPop()
		if !ok {
			runtime.Gosched()
			continue
		}
		if e.seq != uint64(i) {
			t.Fatalf("pop %d saw entry %d: dropped or duplicated", i, e.seq)
		}
		i++
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("ring still holds %d entries", r.Len())
	}
}

// TestStageBufferOrder pins the reward-aware policy's ordering: sheds
// take the lowest price first (newest among ties), drains take the
// highest price first (oldest among ties).
func TestStageBufferOrder(t *testing.T) {
	var s stageBuffer
	// Prices 3, 1, 2, and two entries tied at price 2 (seq 2 older, seq 3 newer).
	s.insert(ingestEntry{price: 3, seq: 0})
	s.insert(ingestEntry{price: 1, seq: 1})
	s.insert(ingestEntry{price: 2, seq: 2})
	s.insert(ingestEntry{price: 2, seq: 3})

	if got := s.popLowest(); got.seq != 1 {
		t.Fatalf("first shed took seq %d (price %g), want the price-1 entry", got.seq, got.price)
	}
	// Tie at price 2: the newer entry (seq 3) sheds before the older.
	if got := s.popLowest(); got.seq != 3 {
		t.Fatalf("tie shed took seq %d, want the newer entry 3", got.seq)
	}
	// Drain order: highest price first.
	if got := s.popHighest(); got.seq != 0 {
		t.Fatalf("drain took seq %d, want the price-3 entry", got.seq)
	}
	if got := s.popHighest(); got.seq != 2 {
		t.Fatalf("drain took seq %d, want the remaining entry", got.seq)
	}
	if s.len() != 0 {
		t.Fatalf("stage still holds %d entries", s.len())
	}
}
