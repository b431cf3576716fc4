package lp

// Basis is an opaque warm-start handle: the basic columns at the end of a
// successful solve, each recorded by position — a structural variable by
// its index, the slack or surplus of a row by the row's index. A solve
// seeded with it reads it by position only, so it fits a problem that keeps
// the captured problem's variables and rows where they were: the same
// problem with drifted coefficients, or the same problem with rows
// appended (a branch-and-bound child is its parent plus one bound row).
// Entries out of range in the target problem, and entries for a row that
// is an equality there, are dropped; rows left uncovered start with their
// slack or artificial. A Basis is immutable and safe for concurrent use by
// multiple solves.
type Basis struct {
	entries []basisEntry
}

// basisEntry is one basic column: structural variable idx, or the
// slack/surplus column of row idx.
type basisEntry struct {
	isRow bool
	idx   int
}

// Size returns the number of recorded basic columns.
func (b *Basis) Size() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// withRow returns b plus the slack of row r. When b is the optimal basis
// of a problem with r rows, that is the exact basis of the problem with one
// more row appended: the new row's slack takes the new basis position.
func (b *Basis) withRow(r int) *Basis {
	entries := make([]basisEntry, len(b.entries), len(b.entries)+1)
	copy(entries, b.entries)
	return &Basis{entries: append(entries, basisEntry{isRow: true, idx: r})}
}

// captureBasis records the current basis of a solved standard form.
// Artificial columns are skipped: they carry no information worth
// re-applying (a warm application covers their rows automatically).
func captureBasis(sf *standardForm, basis []int) *Basis {
	wb := &Basis{entries: make([]basisEntry, 0, len(basis))}
	for _, j := range basis {
		switch {
		case j < sf.n:
			wb.entries = append(wb.entries, basisEntry{idx: j})
		case j < sf.artStart:
			wb.entries = append(wb.entries, basisEntry{isRow: true, idx: sf.colRow[j]})
		}
	}
	return wb
}

// resolveBasis maps a warm basis onto this standard form by position,
// returning the distinct standard-form column indices that should seed the
// basis. Entries out of range, and row entries whose row has no slack (an
// equality), are dropped.
func (sf *standardForm) resolveBasis(wb *Basis) []int {
	if wb == nil || len(wb.entries) == 0 {
		return nil
	}
	cols := sf.colsBuf[:0]
	sf.claimedBuf = growBools(sf.claimedBuf, sf.nTotal)
	claimed := sf.claimedBuf
	clear(claimed)
	for _, e := range wb.entries {
		j := -1
		if e.isRow {
			if e.idx >= 0 && e.idx < sf.m {
				j = sf.slackCol[e.idx]
			}
		} else if e.idx >= 0 && e.idx < sf.n {
			j = e.idx
		}
		if j >= 0 && !claimed[j] {
			claimed[j] = true
			cols = append(cols, j)
		}
	}
	sf.colsBuf = cols
	return cols
}
