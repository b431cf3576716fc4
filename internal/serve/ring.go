package serve

// The high-throughput ingest path's two queue primitives.
//
// ingestRing is a bounded single-producer/single-consumer ring buffer in
// the classic Lamport style: the producer (whoever holds the door lock)
// only advances tail, the consumer (whoever holds the planner lock) only
// advances head, and the atomic cursor stores establish the happens-before
// edges that make the handoff safe without a lock shared by both sides. It
// sits between HTTP intake and the planner so a burst of batch submissions
// never contends with a scheduling tick.
//
// stageBuffer is the door's overflow stage that implements the
// reward-aware shedding policy: entries that cannot enter a full ring
// wait here ordered by expected reward, drain back into the ring
// highest-expected-reward first, and — once the stage itself overflows —
// shed lowest-expected-reward first. Below saturation the stage is
// pass-through (insert immediately followed by pop), so FIFO submission
// order is preserved and batched intake decides identically to the
// single-POST path; the priority order only reorders requests the
// single-POST path would have had to refuse outright.

import (
	"sort"
	"sync/atomic"
)

// ingestEntry is one request travelling the batch intake path.
type ingestEntry struct {
	req     *request // its row in the request table; the spec rides in req.live
	price   float64  // expected reward under the spec's demand distribution
	seq     uint64   // door-local arrival ordinal, for deterministic ties
	enqNano int64    // enqueue timestamp for the intake-latency histogram
}

// ingestRing is the bounded SPSC ring. Capacity is rounded up to a power
// of two so index masking replaces modulo on the hot path.
type ingestRing struct {
	mask uint64
	buf  []ingestEntry
	head atomic.Uint64 // next index to pop; written only by the consumer
	tail atomic.Uint64 // next index to push; written only by the producer
}

func newIngestRing(capacity int) *ingestRing {
	if capacity < 2 {
		capacity = 2
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ingestRing{mask: uint64(n - 1), buf: make([]ingestEntry, n)}
}

// Cap returns the ring's fixed capacity.
func (r *ingestRing) Cap() int { return len(r.buf) }

// Len returns the current depth. Reading both cursors is not atomic as a
// pair, so concurrent callers see a value at most one push/pop stale —
// exact for the producer and consumer themselves, gauge-grade for
// everyone else.
func (r *ingestRing) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// TryPush appends one entry; false when the ring is full. Producer only.
func (r *ingestRing) TryPush(e ingestEntry) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = e
	r.tail.Store(t + 1) // release: publishes the slot write to the consumer
	return true
}

// TryPop removes the oldest entry; false when the ring is empty.
// Consumer only.
func (r *ingestRing) TryPop() (ingestEntry, bool) {
	h := r.head.Load()
	if r.tail.Load() == h {
		return ingestEntry{}, false
	}
	e := r.buf[h&r.mask]
	// Clear the slot before releasing it so the ring never pins request
	// specs past their pop (the producer may not reuse this slot for a
	// long time on a quiet daemon).
	r.buf[h&r.mask] = ingestEntry{}
	r.head.Store(h + 1) // release: returns the slot to the producer
	return e, true
}

// stageBuffer holds entries waiting for ring space, sorted ascending by
// (price, then seq descending): index 0 is the cheapest entry — and,
// among equal prices, the newest — which is exactly what the shedding
// policy drops first; the last index is the most valuable — and, among
// equal prices, the oldest — which is what drains into the ring first.
// Guarded by the door lock.
type stageBuffer struct {
	entries []ingestEntry
}

func (s *stageBuffer) len() int { return len(s.entries) }

// insert places one entry at its sorted position.
func (s *stageBuffer) insert(e ingestEntry) {
	i := sort.Search(len(s.entries), func(i int) bool {
		if s.entries[i].price != e.price {
			return s.entries[i].price > e.price
		}
		return s.entries[i].seq < e.seq // equal price: newer (larger seq) sorts lower
	})
	s.entries = append(s.entries, ingestEntry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
}

// popLowest removes and returns the cheapest (shed victim) entry.
func (s *stageBuffer) popLowest() ingestEntry {
	e := s.entries[0]
	n := copy(s.entries, s.entries[1:])
	s.entries[n] = ingestEntry{}
	s.entries = s.entries[:n]
	return e
}

// popHighest removes and returns the most valuable (next to drain) entry.
func (s *stageBuffer) popHighest() ingestEntry {
	n := len(s.entries) - 1
	e := s.entries[n]
	s.entries[n] = ingestEntry{}
	s.entries = s.entries[:n]
	return e
}
