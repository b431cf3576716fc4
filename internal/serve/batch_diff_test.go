package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// referenceDecodeBatch is DecodeBatch as it was before the line scanner:
// encoding/json alone, one Decoder per line. It is what the wire contract
// means; the differential tests below hold DecodeBatch to it.
func referenceDecodeBatch(r io.Reader, maxLines, maxLineBytes int) ([]BatchLine, []LineError, error) {
	if maxLines <= 0 {
		maxLines = DefaultMaxBatchLines
	}
	if maxLineBytes <= 0 {
		maxLineBytes = DefaultMaxLineBytes
	}
	var (
		lines []BatchLine
		errs  []LineError
		seen  map[string]int
	)
	br := bufio.NewReaderSize(r, 64<<10)
	lineNo, requests := 0, 0
	for {
		line, tooLong, err := readLimitedLine(br, maxLineBytes, nil)
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
				var w batchWire
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if derr := dec.Decode(&w); derr != nil {
					errs = append(errs, LineError{Line: lineNo, Error: "bad line: " + derr.Error()})
					break
				}
				if dec.More() {
					errs = append(errs, LineError{Line: lineNo, Error: "trailing data after JSON object"})
					break
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

// sameDecode fails unless both decoders said the same thing about body:
// the same lines field for field (NaN-free by construction: JSON has no
// NaN), the same per-line errors with the same numbers and text, the same
// batch error.
func sameDecode(t *testing.T, body []byte, maxLines, maxLineBytes int) (fallbacks int) {
	t.Helper()
	var d batchDecoder
	got, gotErrs, gotErr := d.decode(nil, bytes.NewReader(body), maxLines, maxLineBytes)
	want, wantErrs, wantErr := referenceDecodeBatch(bytes.NewReader(body), maxLines, maxLineBytes)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("batch error %v, reference %v\nbody %q", gotErr, wantErr, body)
	}
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Fatalf("line errors %+v, reference %+v\nbody %q", gotErrs, wantErrs, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lines %+v, reference %+v\nbody %q", got, want, body)
	}
	return d.fallbacks
}

// decodeSeeds are bodies chosen to sit on the edge of the fast grammar;
// each is both a fuzz seed and a table case.
var decodeSeeds = []string{
	`{"id":"a","accessStation":1,"deadlineMS":100,"durationSlots":3,"tasks":[{"name":"t","outputKb":1.5,"workMS":2}],"outcomes":[{"rateMBs":40,"prob":1,"reward":500}]}` + "\n",
	`{"accessStation":01}` + "\n",
	`{"accessStation":-0,"deadlineMS":-0}` + "\n",
	`{"deadlineMS":1e999}` + "\n{\"deadlineMS\":1e-999}\n",
	`{"accessStation":12345678901234567890}` + "\n",
	`{"accessStation":1.0}` + "\n" + `{"durationSlots":1e2}` + "\n",
	`{"AccessStation":1}` + "\n" + `{"ID":"x"}` + "\n",
	`{"accessStation":1,"accessStation":2}` + "\n",
	`{"outcomes":[{"prob":1,"prob":0.5}]}` + "\n",
	`{"outcomes":[{"rateMBs":1,"prob":1,"reward":2}],"outcomes":[{"prob":1}]}` + "\n",
	`{"outcomes":null}` + "\n" + `{"outcomes":[]}` + "\n" + `{"tasks":[]}` + "\n" + `{"id":null}` + "\n",
	`{"outcomes":[{}]}` + "\n" + `{"outcomes":[null]}` + "\n" + `{"outcomes":[{"prob":null}]}` + "\n",
	`{"id":"a\u0062"}` + "\n" + `{"id":"tab\there"}` + "\n" + `{"id":"q\"q"}` + "\n",
	"{\"id\":\"caf\xc3\xa9\"}\n{\"id\":\"bad\xff\"}\n{\"id\":\"ctl\x01\"}\n{\"id\":\"nul\x00\"}\n",
	`{"id":"a"} x` + "\n" + `{"id":"b"}}` + "\n" + `{"id":"c"}]` + "\n" + `{"id":"d"}{}` + "\n",
	"{\"id\":\"a\"}\r\n\r\n{\"id\":\"b\"}\r\n",
	`{"id":"a"}` + "\n" + `{"id":"b","deadl`,
	" \t{ \"id\" : \"a\" , \"outcomes\" : [ { \"prob\" : 1 } , { \"prob\" : 0 } ] } \t\n",
	`{"id":"a",}` + "\n" + `{,"id":"a"}` + "\n" + `{"outcomes":[{"prob":1},]}` + "\n" + `{"outcomes":[,{"prob":1}]}` + "\n",
	`{"id":5}` + "\n" + `{"accessStation":"1"}` + "\n" + `{"tasks":{}}` + "\n" + `{"outcomes":[1]}` + "\n",
	`{"deadlineMS":-}` + "\n" + `{"deadlineMS":1.}` + "\n" + `{"deadlineMS":.5}` + "\n" + `{"deadlineMS":1e}` + "\n" + `{"deadlineMS":+1}` + "\n",
	`{"deadlineMS":0x10}` + "\n" + `{"deadlineMS":1_0}` + "\n" + `{"deadlineMS":Inf}` + "\n" + `{"deadlineMS":NaN}` + "\n",
	`[]` + "\n" + `null` + "\n" + `"s"` + "\n" + `1` + "\n" + "\xef\xbb\xbf{}\n",
	`{"id":"dup"}` + "\n" + `{"id":"dup"}` + "\n" + `{"id":"dup"}` + "\n",
	`{"tasks":[{"name":"décode","outputKb":1,"workMS":1}]}` + "\n",
	`{"unknownField":1}` + "\n" + `{"tasks":[{"extra":1}]}` + "\n",
	"{}\n\x00\n{}\x00\n",
}

// FuzzBatchDecodeMatchesReference: whatever the body, DecodeBatch and the
// encoding/json reference agree on every line, every line error and the
// batch error.
func FuzzBatchDecodeMatchesReference(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s), 0, 0)
	}
	f.Add([]byte(strings.Repeat("{}\n", 5)), 4, 0)
	f.Add([]byte(`{"id":"big","x":"`+strings.Repeat("y", 512)+`"}`+"\n{}\n"), 100, 64)
	f.Fuzz(func(t *testing.T, body []byte, maxLines, maxLineBytes int) {
		if maxLines > 1<<16 {
			maxLines = 1 << 16
		}
		sameDecode(t, body, maxLines, maxLineBytes)
	})
}

// TestDecodeBatchEdgeOfGrammar runs the seed table under plain `go test`
// and pins which side of the grammar a few of them land on.
func TestDecodeBatchEdgeOfGrammar(t *testing.T) {
	for _, s := range decodeSeeds {
		sameDecode(t, []byte(s), 0, 0)
	}
	for _, tc := range []struct {
		body      string
		fallbacks int
	}{
		{decodeSeeds[0], 0},
		{`{"accessStation":-0,"deadlineMS":-0}` + "\n", 0},
		{" \t{ \"id\" : \"a\" , \"outcomes\" : [ { \"prob\" : 1 } ] } \t\n", 0},
		{"{\"id\":\"a\"}\r\n{}\r\n", 0},
		{`{"outcomes":[{}]}` + "\n", 0},
		{`{"AccessStation":1}` + "\n", 1},
		{`{"id":"a\u0062"}` + "\n", 1},
		{`{"outcomes":[]}` + "\n", 1},
		{`{"deadlineMS":1e999}` + "\n", 1},
		{`{"id":"a"}}` + "\n", 1},
		{`{"id":"a","id":"b"}` + "\n{}\n", 1},
	} {
		if got := sameDecode(t, []byte(tc.body), 0, 0); got != tc.fallbacks {
			t.Errorf("%d fallbacks, want %d, for %q", got, tc.fallbacks, tc.body)
		}
	}
}

// randomWire draws a batchWire whose json.Marshal output stays inside the
// fast grammar: every field may be zero or set, floats span the formats
// encoding/json prints (plain, exponent, negative), and strings avoid only
// what Marshal would escape (quote, backslash, control, <, >, &, non-ASCII).
func randomWire(rng *rand.Rand) batchWire {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 -_.:/+=~!@#$%^*()[]{}|;,?'`"
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(1000))
		case 2:
			return rng.NormFloat64() * 1e-9
		case 3:
			return rng.NormFloat64() * 1e25
		case 4:
			return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7fe)+1)<<52)
		default:
			return 30 + 20*rng.Float64()
		}
	}
	var w batchWire
	if rng.Intn(2) == 0 {
		w.ID = str()
	}
	w.AccessStation = rng.Intn(40) - 2
	if rng.Intn(2) == 0 {
		w.DeadlineMS = float()
	}
	if rng.Intn(2) == 0 {
		w.DurationSlots = int(rng.Int63()) >> uint(rng.Intn(64))
		if rng.Intn(4) == 0 {
			w.DurationSlots = -w.DurationSlots
		}
	}
	for n := rng.Intn(4); n > 0; n-- {
		w.Tasks = append(w.Tasks, TaskSpec{Name: str(), OutputKb: float(), WorkMS: float()})
	}
	for n := rng.Intn(6); n > 0; n-- {
		w.Outcomes = append(w.Outcomes, OutcomeSpec{RateMBs: float(), Prob: float(), Reward: float()})
	}
	return w
}

// reshape re-emits a JSON value with every object's members in random
// order and random insignificant whitespace around every token, leaving
// the scalars exactly as json.Marshal printed them.
func reshape(t *testing.T, rng *rand.Rand, v json.RawMessage, out *bytes.Buffer) {
	pad := func() { out.WriteString([]string{"", "", " ", "\t", "  ", "\r"}[rng.Intn(6)]) }
	pad()
	defer pad()
	switch v[0] {
	case '{':
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(v, &obj); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		out.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				out.WriteByte(',')
			}
			pad()
			fmt.Fprintf(out, "%q", k)
			pad()
			out.WriteByte(':')
			reshape(t, rng, obj[k], out)
		}
		pad()
		out.WriteByte('}')
	case '[':
		var arr []json.RawMessage
		if err := json.Unmarshal(v, &arr); err != nil {
			t.Fatal(err)
		}
		out.WriteByte('[')
		for i, e := range arr {
			if i > 0 {
				out.WriteByte(',')
			}
			reshape(t, rng, e, out)
		}
		out.WriteByte(']')
	default:
		out.Write(v)
	}
}

// TestCanonicalLinesNeverFallBack: what a client's encoding/json emits for
// the wire struct — and the same with keys shuffled and whitespace padded —
// is decoded by the scanner alone, and to what the reference decodes.
func TestCanonicalLinesNeverFallBack(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var plain, shaped bytes.Buffer
	lines := 0
	for batch := 0; batch < 40; batch++ {
		plain.Reset()
		shaped.Reset()
		ids := map[string]bool{}
		for n := 1 + rng.Intn(60); n > 0; n-- {
			w := randomWire(rng)
			for ids[w.ID] {
				w.ID += "x" // duplicate ids are line errors, not fallbacks; keep them out
			}
			ids[w.ID] = w.ID != ""
			enc, err := json.Marshal(&w)
			if err != nil {
				t.Fatal(err)
			}
			plain.Write(enc)
			plain.WriteByte('\n')
			reshape(t, rng, enc, &shaped)
			shaped.WriteString([]string{"\n", "\r\n"}[rng.Intn(2)])
			lines++
		}
		for _, body := range [][]byte{plain.Bytes(), shaped.Bytes()} {
			if n := sameDecode(t, body, 0, 0); n != 0 {
				t.Fatalf("%d canonical lines took the encoding/json fallback\nbody %q", n, body)
			}
		}
	}
	t.Logf("%d canonical lines, twice each, 0 fallbacks", lines)
}

// TestMutatedCanonicalLinesMatchReference walks the border of the fast
// grammar from the inside: canonical lines with one to three bytes
// replaced, inserted or deleted, drawn from the bytes JSON gives meaning
// to, must still decode exactly as the reference decodes them, whichever
// side of the border each mutant lands on.
func TestMutatedCanonicalLinesMatchReference(t *testing.T) {
	const meaningful = "\"\"{}[]::,,\\ \t\r\n00123456789..eE+--nulltruefalse\x00\x7f\x80\xc3\xa9"
	rng := rand.New(rand.NewSource(1919))
	var line bytes.Buffer
	fast, slow := 0, 0
	for i := 0; i < 20000; i++ {
		w := randomWire(rng)
		enc, err := json.Marshal(&w)
		if err != nil {
			t.Fatal(err)
		}
		line.Reset()
		if i%2 == 0 {
			line.Write(enc)
		} else {
			reshape(t, rng, enc, &line)
		}
		b := append([]byte(nil), line.Bytes()...)
		for n := 1 + rng.Intn(3); n > 0 && len(b) > 0; n-- {
			at, c := rng.Intn(len(b)), meaningful[rng.Intn(len(meaningful))]
			switch rng.Intn(3) {
			case 0:
				b[at] = c
			case 1:
				b = append(b[:at], append([]byte{c}, b[at:]...)...)
			default:
				b = append(b[:at], b[at+1:]...)
			}
		}
		if sameDecode(t, append(b, '\n'), 0, 0) == 0 {
			fast++
		} else {
			slow++
		}
	}
	t.Logf("%d mutants stayed in the fast grammar, %d fell back", fast, slow)
	if fast < 1000 || slow < 1000 {
		t.Fatalf("mutants split %d fast / %d fallback: the sweep no longer straddles the grammar's border", fast, slow)
	}
}

// TestArenaRunsDoNotOverlap: slices carved from one arena are disjoint and
// capped, across chunk boundaries and for runs longer than a chunk.
func TestArenaRunsDoNotOverlap(t *testing.T) {
	var a arena[int]
	var runs [][]int
	next := 0
	for _, n := range []int{1, arenaChunk - 2, 3, 1, 3 * arenaChunk, 2, arenaChunk, arenaChunk + 1} {
		a.begin()
		for i := 0; i < n; i++ {
			a.push(next)
			next++
		}
		run := a.slice()
		if len(run) != n || cap(run) != n {
			t.Fatalf("run of %d has len %d cap %d", n, len(run), cap(run))
		}
		runs = append(runs, run)
	}
	a.begin()
	a.push(-1)
	a.abort()
	a.begin()
	a.push(next)
	runs = append(runs, a.slice())
	want := 0
	for _, run := range runs {
		for _, v := range run {
			if v != want {
				t.Fatalf("element %d reads %d: a later run wrote over an earlier one", want, v)
			}
			want++
		}
	}
}

// decodeBodies are the three line shapes the benchmark's workloads post.
func decodeBodies() map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	var flood, paper, wave bytes.Buffer
	emit := func(buf *bytes.Buffer, spec RequestSpec) {
		enc, err := json.Marshal(&spec)
		if err != nil {
			panic(err)
		}
		buf.Write(enc)
		buf.WriteByte('\n')
	}
	for i := 0; i < 500; i++ {
		emit(&flood, RequestSpec{AccessStation: rng.Intn(4), DurationSlots: 1 + rng.Intn(3),
			Outcomes: []OutcomeSpec{{RateMBs: 30 + 20*rng.Float64(), Prob: 1, Reward: 300 + 400*rng.Float64()}}})
	}
	for i := 0; i < 12; i++ {
		emit(&paper, RequestSpec{AccessStation: rng.Intn(20), DurationSlots: 2 + rng.Intn(10)})
	}
	for i := 0; i < 16; i++ {
		emit(&wave, RequestSpec{AccessStation: 4 * i, DeadlineMS: 200, DurationSlots: 1, Outcomes: []OutcomeSpec{
			{RateMBs: 60, Prob: 0.5, Reward: float64(100 + 13*i)}, {RateMBs: 80, Prob: 0.5, Reward: float64(150 + 13*i)}}})
	}
	return map[string][]byte{"flood": flood.Bytes(), "paper-default": paper.Bytes(), "wave": wave.Bytes()}
}

var decodeSink int

// BenchmarkDecodeBatch times the encoding/json reference and DecodeBatch
// on the same bodies from one table and one loop.
func BenchmarkDecodeBatch(b *testing.B) {
	bodies := decodeBodies()
	decoders := []struct {
		name   string
		decode func(io.Reader, int, int) ([]BatchLine, []LineError, error)
	}{
		{"reference", referenceDecodeBatch},
		{"scanner", DecodeBatch},
	}
	for _, shape := range []string{"flood", "paper-default", "wave"} {
		body := bodies[shape]
		for _, dec := range decoders {
			b.Run("body="+shape+"/decoder="+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					lines, errs, err := dec.decode(bytes.NewReader(body), 0, 0)
					if err != nil || len(errs) != 0 {
						b.Fatalf("decode: %v %+v", err, errs)
					}
					decodeSink += len(lines)
				}
			})
		}
	}
}
