package serve

// NDJSON bulk intake: POST /v1/requests:batch carries one RequestSpec
// per line (plus an optional client-chosen "id" tag for within-batch
// idempotency), and `arserved -replay file.ndjson` uses the same line
// format as a bulk replay trace, with blank lines marking slot
// boundaries. DecodeBatch is deliberately total: malformed, oversized,
// truncated, or duplicate-id lines become per-line errors, never a
// failed batch, so one bad client line cannot discard the rest of a
// bulk submission.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Batch decode limits. Callers can pass smaller limits; zero selects the
// default.
const (
	DefaultMaxBatchLines = 10000
	DefaultMaxLineBytes  = 1 << 20
)

// ErrBatchTooLarge reports that a batch exceeded the line-count limit;
// the HTTP layer maps it to 413.
var ErrBatchTooLarge = errors.New("serve: batch exceeds line limit")

// BatchLine is one decoded NDJSON line: a request spec plus the
// optional client tag.
type BatchLine struct {
	ClientID string // optional "id" field, unique within a batch when set
	Line     int    // 1-based line number in the NDJSON body
	Spec     RequestSpec
}

// LineError reports one undecodable or invalid NDJSON line.
type LineError struct {
	Line  int    `json:"line"`
	Error string `json:"error"`
}

// batchWire is the JSON shape of one NDJSON line: a RequestSpec with an
// optional "id" client tag flattened in.
type batchWire struct {
	ID string `json:"id,omitempty"`
	RequestSpec
}

// batchReaders recycles DecodeBatch's 64 KB read buffer from POST to POST.
// A reader goes back detached from its source (Reset(nil)), so the pool
// pins no request body.
var batchReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// DecodeBatch reads NDJSON request lines. Blank (whitespace-only) lines
// are skipped. Lines that fail to decode, exceed maxLineBytes, or reuse
// a non-empty client id already seen in this batch come back as
// LineErrors; only exceeding maxLines (or an underlying read error)
// fails the whole batch.
func DecodeBatch(r io.Reader, maxLines, maxLineBytes int) ([]BatchLine, []LineError, error) {
	var d batchDecoder
	return d.decode(r, maxLines, maxLineBytes)
}

// batchDecoder is the state of one DecodeBatch call: the storage its
// lines' Tasks and Outcomes are carved from, and how many lines left the
// fast grammar.
type batchDecoder struct {
	tasks    arena[TaskSpec]
	outcomes arena[OutcomeSpec]
	// fallbacks counts the lines handed to encoding/json. Nothing reads it
	// but tests: a canonical line that lands here is still decoded
	// correctly, only slowly.
	fallbacks int
}

func (d *batchDecoder) decode(r io.Reader, maxLines, maxLineBytes int) ([]BatchLine, []LineError, error) {
	if maxLines <= 0 {
		maxLines = DefaultMaxBatchLines
	}
	if maxLineBytes <= 0 {
		maxLineBytes = DefaultMaxLineBytes
	}
	var (
		lines []BatchLine
		errs  []LineError
		seen  map[string]int // client id -> first line
		// w is every line's decode target, overwritten whole by whichever
		// decoder reads the line; it escapes through the encoding/json
		// fallback, so one serves the whole call.
		w batchWire
	)
	br := batchReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		batchReaders.Put(br)
	}()
	// One line buffer serves every line of the call. Nothing decoded may
	// alias it: both line decoders copy every string they hand out.
	var lineBuf []byte
	lineNo, requests := 0, 0
	for {
		line, tooLong, err := readLimitedLine(br, maxLineBytes, lineBuf[:0])
		lineBuf = line
		if err != nil && !errors.Is(err, io.EOF) {
			return lines, errs, err
		}
		done := errors.Is(err, io.EOF)
		lineNo++
		if len(bytes.TrimSpace(line)) > 0 || tooLong {
			requests++
			if requests > maxLines {
				return lines, errs, fmt.Errorf("%w: more than %d request lines", ErrBatchTooLarge, maxLines)
			}
			switch {
			case tooLong:
				errs = append(errs, LineError{Line: lineNo, Error: fmt.Sprintf("line exceeds %d bytes", maxLineBytes)})
			default:
				if !d.fastLine(line, &w) {
					d.fallbacks++
					if msg := decodeLineJSON(line, &w); msg != "" {
						errs = append(errs, LineError{Line: lineNo, Error: msg})
						break
					}
				}
				if w.ID != "" {
					if seen == nil {
						seen = map[string]int{}
					}
					if first, dup := seen[w.ID]; dup {
						errs = append(errs, LineError{Line: lineNo, Error: fmt.Sprintf("duplicate id %q (first used on line %d)", w.ID, first)})
						break
					}
					seen[w.ID] = lineNo
				}
				lines = append(lines, BatchLine{ClientID: w.ID, Line: lineNo, Spec: w.RequestSpec})
			}
		}
		if done {
			return lines, errs, nil
		}
	}
}

// decodeLineJSON decodes one line with encoding/json and returns the
// line's error text, empty when it decoded. It is the definition of the
// wire contract and of every decode error a client reads; fastLine only
// ever agrees with it or steps aside.
func decodeLineJSON(line []byte, w *batchWire) string {
	*w = batchWire{}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return "bad line: " + err.Error()
	}
	// Trailing garbage after the JSON object is a malformed line, not a
	// second request.
	if dec.More() {
		return "trailing data after JSON object"
	}
	return ""
}

// readLimitedLine reads one newline-terminated line into buf's storage,
// consuming and flagging (rather than returning) lines longer than limit.
// The final line may be unterminated (a truncated upload); it is still
// returned, with io.EOF.
func readLimitedLine(br *bufio.Reader, limit int, buf []byte) (line []byte, tooLong bool, err error) {
	line = buf
	for {
		chunk, rerr := br.ReadSlice('\n')
		if !tooLong {
			line = append(line, chunk...)
			if len(line) > limit {
				tooLong = true
				line = line[:0]
			}
		}
		switch {
		case rerr == nil:
			return line, tooLong, nil
		case errors.Is(rerr, bufio.ErrBufferFull):
			continue // keep consuming this oversized physical line
		default:
			return line, tooLong, rerr
		}
	}
}

// specPrice is the expected reward the scheduler would assign the spec:
// the probability-weighted mean reward of its demand distribution — the
// same E[reward] the paper's bandit prices every request with. Specs
// without explicit outcomes take the paper-default support (rates
// uniform on [30, 50] MB/s) at the midpoint unit reward; the price must
// be deterministic, so the random unit-reward draw that materialization
// performs later is replaced by its mean here.
func specPrice(spec RequestSpec) float64 {
	if len(spec.Outcomes) == 0 {
		return defaultSpecPrice
	}
	var mass, sum float64
	for _, o := range spec.Outcomes {
		if o.Prob > 0 {
			mass += o.Prob
			sum += o.Prob * o.Reward
		}
	}
	if mass <= 0 {
		return 0
	}
	return sum / mass
}
