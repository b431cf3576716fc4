package serve

// The fast half of DecodeBatch: one pass over a line that is in the shape
// a client's JSON encoder emits for batchWire. The grammar is a strict
// subset of what encoding/json accepts for that struct:
//
//	line    = ws "{" [ member *( "," member ) ] "}" ws
//	member  = one of the keys id, accessStation, deadlineMS, durationSlots,
//	          tasks, outcomes — exact case, each at most once, any order
//	id      = string            accessStation, durationSlots = integer
//	deadlineMS = number         tasks, outcomes = non-empty array of objects
//	task    = { name: string, outputKb: number, workMS: number }   (same rules)
//	outcome = { rateMBs: number, prob: number, reward: number }
//	string  = printable ASCII between quotes, no backslash
//	number  = RFC 8259 number that strconv.ParseFloat takes without error
//	integer = number with neither fraction nor exponent that strconv.ParseInt takes
//	ws      = space, tab, CR, LF
//
// Inside it the two decoders cannot disagree: numbers go through the same
// strconv calls on the same literal, strings are the same bytes, and a key
// seen once sets exactly the field encoding/json would set. Everything
// outside it — an unknown, case-folded or repeated key, null, an escape, a
// control or non-ASCII byte, an empty array, a value of the wrong type,
// trailing bytes — makes fastLine report false without judging the line, and the
// caller hands the untouched line to decodeLineJSON.

import (
	"strconv"
	"unicode/utf8"
)

// arenaChunk is how many elements an arena allocates at a time. The slices
// carved from one chunk keep it alive together, so the chunk size bounds
// what a single long-lived request pins: 3 KB of outcomes or 4 KB of tasks,
// whatever the size of the batch it arrived in.
const arenaChunk = 128

// arena carves slices of T from chunk-sized backing arrays, one slice (a
// "run") at a time.
type arena[T any] struct {
	buf []T
	run int // where the run being built starts in buf
}

// begin starts a new run and so keeps whatever the previous one carved.
func (a *arena[T]) begin() { a.run = len(a.buf) }

// push appends to the run, moving it to a fresh chunk when the current one
// is full.
func (a *arena[T]) push(v T) {
	if len(a.buf) == cap(a.buf) {
		run := a.buf[a.run:]
		a.buf = append(make([]T, 0, max(arenaChunk, 2*len(run))), run...)
		a.run = 0
	}
	a.buf = append(a.buf, v)
}

// slice returns the run, capped so that an append by its owner cannot
// reach the next run's elements.
func (a *arena[T]) slice() []T { return a.buf[a.run:len(a.buf):len(a.buf)] }

// abort gives the run's storage back.
func (a *arena[T]) abort() { a.buf = a.buf[:a.run] }

// fastLine decodes line into w when the line is inside the fast grammar.
// On false w holds garbage and nothing else has changed.
func (d *batchDecoder) fastLine(line []byte, w *batchWire) bool {
	*w = batchWire{}
	d.tasks.begin()
	d.outcomes.begin()
	s := lineScanner{b: line}
	if d.wire(&s, w) {
		return true
	}
	d.tasks.abort()
	d.outcomes.abort()
	return false
}

// fieldSet records which keys of one object have been seen.
type fieldSet uint8

// first marks bit and reports whether this is its first sighting.
func (f *fieldSet) first(bit fieldSet) bool {
	dup := *f&bit != 0
	*f |= bit
	return !dup
}

func (d *batchDecoder) wire(s *lineScanner, w *batchWire) bool {
	var seen fieldSet
	ok := s.members(func(name []byte) bool {
		switch string(name) {
		case "id":
			return seen.first(1<<0) && s.str(&w.ID)
		case "accessStation":
			return seen.first(1<<1) && s.int(&w.AccessStation)
		case "deadlineMS":
			return seen.first(1<<2) && s.float(&w.DeadlineMS)
		case "durationSlots":
			return seen.first(1<<3) && s.int(&w.DurationSlots)
		case "tasks":
			ok := seen.first(1<<4) && s.elements(func() bool { return d.task(s) })
			w.Tasks = d.tasks.slice()
			return ok
		case "outcomes":
			ok := seen.first(1<<5) && s.elements(func() bool { return d.outcome(s) })
			w.Outcomes = d.outcomes.slice()
			return ok
		}
		return false
	})
	return ok && s.end()
}

func (d *batchDecoder) task(s *lineScanner) bool {
	var t TaskSpec
	var seen fieldSet
	ok := s.members(func(name []byte) bool {
		switch string(name) {
		case "name":
			return seen.first(1<<0) && s.str(&t.Name)
		case "outputKb":
			return seen.first(1<<1) && s.float(&t.OutputKb)
		case "workMS":
			return seen.first(1<<2) && s.float(&t.WorkMS)
		}
		return false
	})
	if ok {
		d.tasks.push(t)
	}
	return ok
}

func (d *batchDecoder) outcome(s *lineScanner) bool {
	var o OutcomeSpec
	var seen fieldSet
	ok := s.members(func(name []byte) bool {
		switch string(name) {
		case "rateMBs":
			return seen.first(1<<0) && s.float(&o.RateMBs)
		case "prob":
			return seen.first(1<<1) && s.float(&o.Prob)
		case "reward":
			return seen.first(1<<2) && s.float(&o.Reward)
		}
		return false
	})
	if ok {
		d.outcomes.push(o)
	}
	return ok
}

// lineScanner is a cursor over one line. Every method skips leading
// whitespace first; once one has failed the line goes to the fallback and
// the cursor means nothing.
type lineScanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the byte under the cursor, 0 at the
// end of the line (a literal NUL is outside the grammar wherever peek's
// result is tested).
func (s *lineScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// end reports whether only whitespace is left.
func (s *lineScanner) end() bool {
	s.peek()
	return s.i == len(s.b)
}

// eat consumes c.
func (s *lineScanner) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// members walks the object under the cursor, calling member for each key
// with the cursor at that key's value.
func (s *lineScanner) members(member func(name []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	for first := true; ; first = false {
		if s.eat('}') {
			return true
		}
		if !first && !s.eat(',') {
			return false
		}
		name, ok := s.raw()
		if !ok || !s.eat(':') || !member(name) {
			return false
		}
	}
}

// elements walks the array under the cursor, calling element with the
// cursor at each one. There must be a first: encoding/json decodes an empty
// array to an empty non-nil slice, which no run of an arena is.
func (s *lineScanner) elements(element func() bool) bool {
	if !s.eat('[') {
		return false
	}
	for first := true; ; first = false {
		if !first {
			if s.eat(']') {
				return true
			}
			if !s.eat(',') {
				return false
			}
		}
		if !element() {
			return false
		}
	}
}

// raw scans a string and returns the bytes between its quotes, which alias
// the line.
func (s *lineScanner) raw() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, false
	}
	start := s.i + 1
	for j := start; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			s.i = j + 1
			return s.b[start:j], true
		case c < ' ' || c == '\\' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// str scans a string into a copy of its own.
func (s *lineScanner) str(dst *string) bool {
	b, ok := s.raw()
	*dst = string(b)
	return ok
}

// number scans an RFC 8259 number literal, the grammar encoding/json
// enforces before it calls strconv (which alone would also take "0x1p-2",
// "1_0" and "Inf"), and reports whether it is a bare integer. What follows
// the literal is the caller's to check: after "01" the cursor is at the 1.
func (s *lineScanner) number() (lit []byte, integer, ok bool) {
	if s.peek() == 0 {
		return nil, false, false
	}
	b, i := s.b, s.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false, false
		}
	}
	lit, s.i = b[s.i:i], i
	return lit, integer, true
}

func (s *lineScanner) float(dst *float64) bool {
	lit, _, ok := s.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (s *lineScanner) int(dst *int) bool {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}
