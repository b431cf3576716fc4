package serve

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// tableFeed drives a table as a shard's door does at steady state: batches
// of rows at a fixed id stride (every id at 1 shard, one in N at N), each
// row already settled, so every insert evicts as many rows as it places.
// Rows come from a ring of storage longer than the bound plus two batches,
// so a row is reused only after eviction has dropped it and the feed
// itself allocates nothing.
type tableFeed struct {
	tb         *table
	pool       []request
	next       int
	id, stride uint64
	batch      []*request
}

func newTableFeed(bound, batch int, stride uint64) *tableFeed {
	f := &tableFeed{tb: newTable(bound, nil), pool: make([]request, bound+2*batch), stride: stride, batch: make([]*request, batch)}
	for range bound/batch + 2 {
		f.insert()
	}
	return f
}

// insert files the next batch and returns how many rows it evicted.
func (f *tableFeed) insert() int {
	for i := range f.batch {
		req := &f.pool[f.next]
		if f.next++; f.next == len(f.pool) {
			f.next = 0
		}
		*req = request{rec: RequestRecord{ID: f.id, State: StateCompleted}}
		f.id += f.stride
		f.batch[i] = req
	}
	evicted, _ := f.tb.insert(f.batch...)
	return evicted
}

// BenchmarkTableInsert times one 500-row batch into a table at its bound,
// full of terminal rows, at id strides 1, 2 and 8 (a shard's share at 1, 2
// and 8 shards): ns per row, and index-B, the heap the table holds beyond
// the rows themselves.
func BenchmarkTableInsert(b *testing.B) {
	const batch = 500
	for _, stride := range []uint64{1, 2, 8} {
		b.Run(fmt.Sprintf("stride=%d", stride), func(b *testing.B) {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := int64(ms.HeapAlloc)
			f := newTableFeed(maxRecords, batch, stride)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			rows := int64(len(f.pool)) * int64(unsafe.Sizeof(request{}))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if f.insert() != batch {
					b.Fatal("a batch into a full table of terminal rows evicted other than its size")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/row")
			b.ReportMetric(float64(int64(ms.HeapAlloc)-before-rows), "index-B")
		})
	}
}

// TestTableInsertAllocs: at its bound, a table files a batch and evicts as
// many rows without allocating, whatever the id stride: the window slides
// over its ring and never regrows.
func TestTableInsertAllocs(t *testing.T) {
	for _, stride := range []uint64{1, 2, 8} {
		f := newTableFeed(4096, 500, stride)
		if allocs := testing.AllocsPerRun(100, func() { f.insert() }); allocs != 0 {
			t.Errorf("stride %d: %.1f allocations per batch at the bound, want 0", stride, allocs)
		}
	}
}
