package serve

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// TestDoorFIFO pins the door's single-goroutine contract below its bound:
// entries drain in push order, a full door sheds instead of growing, and
// an equal-priced arrival at a full door is itself the victim, so nothing
// already queued is lost.
func TestDoorFIFO(t *testing.T) {
	var d doorBuffer
	for i := 0; i < 4; i++ {
		if _, shed := d.push(ingestEntry{seq: uint64(i)}, 4); shed {
			t.Fatalf("push %d shed below capacity", i)
		}
	}
	victim, shed := d.push(ingestEntry{seq: 99}, 4)
	if !shed || victim.seq != 99 {
		t.Fatalf("push on a full door shed (%v, seq %d), want the arrival 99", shed, victim.seq)
	}
	if len(d.entries) != 4 {
		t.Fatalf("full door holds %d, want 4", len(d.entries))
	}
	got := d.take(-1, nil)
	for i, e := range got {
		if e.seq != uint64(i) {
			t.Fatalf("take %d = seq %d, want %d", i, e.seq, i)
		}
	}
	if len(got) != 4 {
		t.Fatalf("took %d entries, want 4", len(got))
	}
	if rest := d.take(-1, nil); len(rest) != 0 {
		t.Fatalf("take on an empty door returned %d entries", len(rest))
	}
}

// TestDoorConcurrentTakesLoseNothing is the concurrency property test
// (run under -race by the CI race job): with one producer pushing under
// the door lock without overfilling and one consumer taking bounded and
// forced drains, every entry arrives exactly once, in order.
func TestDoorConcurrentTakesLoseNothing(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 5000
	}
	const capacity = 64
	var (
		mu sync.Mutex
		d  doorBuffer
	)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; {
			mu.Lock()
			if len(d.entries) < capacity {
				if _, shed := d.push(ingestEntry{seq: uint64(i)}, capacity); shed {
					mu.Unlock()
					done <- errors.New("push shed below the door's capacity")
					return
				}
				i++
			}
			mu.Unlock()
			// Yield between pushes: on one CPU a pure spin starves the
			// consumer for whole scheduling quanta.
			runtime.Gosched()
		}
		done <- nil
	}()
	var spare []ingestEntry
	for i, round := 0, 0; i < n; round++ {
		limit := -1
		if round%2 == 0 {
			limit = 1 + round%capacity
		}
		mu.Lock()
		got := d.take(limit, spare)
		mu.Unlock()
		if len(got) == 0 {
			runtime.Gosched()
		}
		for _, e := range got {
			if e.seq != uint64(i) {
				t.Fatalf("take %d saw entry %d: dropped or duplicated", i, e.seq)
			}
			i++
		}
		spare = got[:0]
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(d.entries) != 0 {
		t.Fatalf("door still holds %d entries", len(d.entries))
	}
}

// TestDoorShedOrder pins the door's shedding order once full: the
// lowest price sheds first, the newest among ties, an arrival at or below
// the floor sheds itself, and the survivors drain in arrival order.
func TestDoorShedOrder(t *testing.T) {
	var d doorBuffer
	// Prices 3, 1, 2, and two entries tied at price 2 (seq 2 older, seq 3 newer).
	for i, price := range []float64{3, 1, 2, 2} {
		d.push(ingestEntry{price: price, seq: uint64(i)}, 4)
	}
	if got, _ := d.push(ingestEntry{price: 5, seq: 4}, 4); got.seq != 1 {
		t.Fatalf("first shed took seq %d (price %g), want the price-1 entry", got.seq, got.price)
	}
	// Tie at price 2: the newer entry (seq 3) sheds before the older.
	if got, _ := d.push(ingestEntry{price: 5, seq: 5}, 4); got.seq != 3 {
		t.Fatalf("tie shed took seq %d, want the newer entry 3", got.seq)
	}
	// An arrival below the floor price sheds itself.
	if got, _ := d.push(ingestEntry{price: 0, seq: 6}, 4); got.seq != 6 {
		t.Fatalf("below-floor arrival shed seq %d, want the arrival 6", got.seq)
	}
	var order []uint64
	for _, e := range d.take(-1, nil) {
		order = append(order, e.seq)
	}
	if want := []uint64{0, 2, 4, 5}; !slices.Equal(order, want) {
		t.Fatalf("survivors drained %v, want arrival order %v", order, want)
	}
}

// refDoor is the door's shedding rule written the naive way: a slice in
// arrival order that, once over capacity, scans for its victim — the
// lowest price, and among equal prices the newest arrival.
type refDoor struct{ entries []ingestEntry }

func (r *refDoor) push(ent ingestEntry, capacity int) (ingestEntry, bool) {
	r.entries = append(r.entries, ent)
	if len(r.entries) <= capacity {
		return ingestEntry{}, false
	}
	v := 0
	for i, e := range r.entries {
		if e.price < r.entries[v].price || e.price == r.entries[v].price && e.seq > r.entries[v].seq {
			v = i
		}
	}
	victim := r.entries[v]
	r.entries = slices.Delete(r.entries, v, v+1)
	return victim, true
}

func (r *refDoor) take(limit int) []ingestEntry {
	if limit < 0 || limit > len(r.entries) {
		limit = len(r.entries)
	}
	out := slices.Clone(r.entries[:limit])
	r.entries = r.entries[limit:]
	return out
}

// TestDoorMatchesReference runs seeded random pushes (prices drawn from
// three values, so most sheds break a tie), bounded takes and forced takes
// against refDoor: both must shed the same victims and drain the same
// sequence, and the door never holds more than its capacity.
func TestDoorMatchesReference(t *testing.T) {
	seqs := func(es []ingestEntry) []uint64 {
		out := make([]uint64, len(es))
		for i, e := range es {
			out[i] = e.seq
		}
		return out
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		var (
			door    doorBuffer
			ref     refDoor
			spare   []ingestEntry
			seq     uint64
			sheds   int
			wasFull bool
		)
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 7:
				ent := ingestEntry{price: float64(rng.Intn(3)), seq: seq}
				seq++
				got, gotShed := door.push(ent, capacity)
				want, wantShed := ref.push(ent, capacity)
				if gotShed != wantShed || got.seq != want.seq {
					t.Fatalf("seed %d step %d: push shed (%v, seq %d), reference sheds (%v, seq %d)",
						seed, step, gotShed, got.seq, wantShed, want.seq)
				}
				if gotShed {
					sheds++
				}
			default:
				limit := -1
				if op < 9 {
					limit = rng.Intn(capacity + 2)
				}
				wasFull = wasFull || door.heaped
				got := door.take(limit, spare)
				want := ref.take(limit)
				if !slices.Equal(seqs(got), seqs(want)) {
					t.Fatalf("seed %d step %d: take(%d) drained %v, reference %v", seed, step, limit, seqs(got), seqs(want))
				}
				spare = got[:0]
			}
			if len(door.entries) > capacity || len(door.entries) != len(ref.entries) {
				t.Fatalf("seed %d step %d: door holds %d, reference %d, capacity %d",
					seed, step, len(door.entries), len(ref.entries), capacity)
			}
		}
		if sheds == 0 || !wasFull {
			t.Fatalf("seed %d: vacuous run (%d sheds, drained a heaped door: %v)", seed, sheds, wasFull)
		}
	}
}
