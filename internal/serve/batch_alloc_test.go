//go:build !race

// Under the race detector sync.Pool drops a random quarter of its Puts on
// purpose, so the pooled reader is re-made whatever the code does.

package serve

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestDecodeBatchAllocsPerBatch: the allocations of a 500-line flood-shaped
// POST are the batch's — an outcome chunk per 128 lines, one line buffer,
// one decode target — not the lines'. The result slice is the caller's,
// reused from batch to batch as the batch handler reuses it. The
// encoding/json decoder made 17 a line (8 513 for this body).
func TestDecodeBatchAllocsPerBatch(t *testing.T) {
	body := decodeBodies()["flood"]
	var lines []BatchLine
	allocs := testing.AllocsPerRun(20, func() {
		var d batchDecoder
		decoded, errs, err := d.decode(lines[:0], bytes.NewReader(body), 0, 0)
		lines = decoded
		if err != nil || len(errs) != 0 || len(lines) != 500 || d.fallbacks != 0 {
			t.Fatalf("decode: %d lines, %d fallbacks, errs %+v, err %v", len(lines), d.fallbacks, errs, err)
		}
	})
	t.Logf("%v allocations per 500-line DecodeBatch", allocs)
	if allocs > 12 {
		t.Fatalf("a 500-line DecodeBatch makes %v allocations: something allocates per line again", allocs)
	}
}

// TestDecodeBatchReusesReader: a POST must not pay for a fresh 64 KB read
// buffer. A 16-line batch allocates its result slice, one chunk of
// outcomes and a line buffer — together a fraction of the buffer alone.
func TestDecodeBatchReusesReader(t *testing.T) {
	body := strings.Repeat(`{"accessStation":1,"outcomes":[{"rateMBs":40,"prob":1,"reward":500}]}`+"\n", 16)
	decode := func() {
		lines, errs, err := DecodeBatch(strings.NewReader(body), 0, 0)
		if err != nil || len(errs) != 0 || len(lines) != 16 {
			t.Fatalf("DecodeBatch: %d lines, errs %+v, err %v", len(lines), errs, err)
		}
	}
	decode() // fill the pool
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per 16-line DecodeBatch", perCall)
	if perCall >= 64<<10 {
		t.Fatalf("a 16-line DecodeBatch allocates %d B; the read buffer alone is 64 KB", perCall)
	}
}
