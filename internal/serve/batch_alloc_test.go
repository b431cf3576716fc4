//go:build !race

// Under the race detector sync.Pool drops a random quarter of its Puts on
// purpose, so the pooled reader is re-made whatever the code does.

package serve

import (
	"runtime"
	"strings"
	"testing"
)

// TestDecodeBatchReusesReader: a POST must not pay for a fresh 64 KB read
// buffer. A 16-line batch allocates a JSON decoder per line (about 3 KB
// each), its specs and its result slice — together less than the buffer
// alone.
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
