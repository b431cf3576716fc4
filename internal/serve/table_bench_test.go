package serve

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// tableFeed drives a table as a shard's door does at steady state: batches
// of requests at a fixed id stride (every id at 1 shard, one in N at N),
// each settled as soon as it is filed, so every insert evicts as many rows
// as it places and takes its rows from those the last one evicted. The
// feed's own live parts are reused batch after batch, so it allocates
// nothing itself.
type tableFeed struct {
	tb         *table
	id, stride uint64
	lives      []liveState
	batch      []*liveState
}

func newTableFeed(bound, batch int, stride uint64) *tableFeed {
	f := &tableFeed{tb: newTable(bound, nil), stride: stride,
		lives: make([]liveState, batch), batch: make([]*liveState, batch)}
	for range bound/batch + 2 {
		f.insert()
	}
	return f
}

// insert files the next batch, settles it, and returns how many rows it
// evicted.
func (f *tableFeed) insert() int {
	for i := range f.batch {
		f.lives[i] = liveState{id: f.id}
		f.id += f.stride
		f.batch[i] = &f.lives[i]
	}
	evicted, _ := f.tb.insert(0, f.batch...)
	for _, live := range f.batch {
		f.tb.at(live.row).state = rowCompleted
	}
	return evicted
}

// BenchmarkTableInsert times one 500-row batch into a table at its bound,
// full of terminal rows, at id strides 1, 2 and 8 (a shard's share at 1, 2
// and 8 shards): ns per row, and index-B, the heap the table holds beyond
// its slab's pages of rows.
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
			rows := int64(len(*f.tb.rows.pages.Load())) * int64(unsafe.Sizeof(rowPage{}))
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
// over its ring and never regrows, and the batch's rows are the ones the
// last batch evicted.
func TestTableInsertAllocs(t *testing.T) {
	for _, stride := range []uint64{1, 2, 8} {
		f := newTableFeed(4096, 500, stride)
		if allocs := testing.AllocsPerRun(100, func() { f.insert() }); allocs != 0 {
			t.Errorf("stride %d: %.1f allocations per batch at the bound, want 0", stride, allocs)
		}
	}
}
