package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"

	"mecoffload/internal/stats"
)

// median is the 50th percentile, 0 for an empty sample.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promSum adds up every sample of one metric family in a Prometheus text
// exposition whose label set contains `label` (empty matches all). The
// cluster exposes its per-shard counters only through WriteProm, so this
// is how the benchmark reads them.
func promSum(text []byte, family, label string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer family name sharing the prefix
		}
		sp := strings.LastIndexByte(rest, ' ')
		if sp < 0 || !strings.Contains(rest[:sp], label) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[sp+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// promPerShard returns one family's samples keyed by shard label.
func promPerShard(text []byte, family string, shards int) []float64 {
	out := make([]float64, shards)
	for k := range out {
		out[k] = promSum(text, family, `shard="`+strconv.Itoa(k)+`"`)
	}
	return out
}
