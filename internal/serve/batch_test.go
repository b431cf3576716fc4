package serve

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestDecodeBatchBasic(t *testing.T) {
	body := `{"id":"a","deadlineMS":100}

{"deadlineMS":200,"outcomes":[{"prob":1,"rateMBs":40,"reward":500}]}
{"id":"b"}
`
	lines, errs, err := DecodeBatch(strings.NewReader(body), 0, 0)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(errs) != 0 {
		t.Fatalf("unexpected line errors: %+v", errs)
	}
	if len(lines) != 3 {
		t.Fatalf("decoded %d lines, want 3", len(lines))
	}
	// Line numbers are physical: the blank line 2 still counts.
	wantLines := []int{1, 3, 4}
	wantIDs := []string{"a", "", "b"}
	for i, ln := range lines {
		if ln.Line != wantLines[i] || ln.ClientID != wantIDs[i] {
			t.Fatalf("line %d = {Line:%d ID:%q}, want {Line:%d ID:%q}",
				i, ln.Line, ln.ClientID, wantLines[i], wantIDs[i])
		}
	}
	if lines[0].Spec.DeadlineMS != 100 || lines[1].Spec.DeadlineMS != 200 {
		t.Fatalf("specs decoded wrong: %+v", lines)
	}
	if len(lines[1].Spec.Outcomes) != 1 || lines[1].Spec.Outcomes[0].Reward != 500 {
		t.Fatalf("outcomes decoded wrong: %+v", lines[1].Spec)
	}
}

func TestDecodeBatchPerLineErrors(t *testing.T) {
	body := strings.Join([]string{
		`{"id":"dup"}`,
		`{not json`,
		`{"id":"dup"}`,              // duplicate client id
		`{"deadlineMS":5} trailing`, // trailing garbage
		`{"unknownField":1}`,        // unknown field
		`{"id":"ok"}`,               // fine — one bad line must not sink the rest
	}, "\n")
	lines, errs, err := DecodeBatch(strings.NewReader(body), 0, 0)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("decoded %d good lines, want 2: %+v", len(lines), lines)
	}
	if lines[0].ClientID != "dup" || lines[1].ClientID != "ok" {
		t.Fatalf("good lines = %+v", lines)
	}
	if len(errs) != 4 {
		t.Fatalf("got %d line errors, want 4: %+v", len(errs), errs)
	}
	wantErrLines := []int{2, 3, 4, 5}
	for i, le := range errs {
		if le.Line != wantErrLines[i] {
			t.Fatalf("error %d on line %d, want %d (%s)", i, le.Line, wantErrLines[i], le.Error)
		}
	}
	if !strings.Contains(errs[1].Error, "duplicate id") {
		t.Fatalf("line 3 error = %q, want duplicate-id", errs[1].Error)
	}
	if !strings.Contains(errs[2].Error, "trailing data") {
		t.Fatalf("line 4 error = %q, want trailing-data", errs[2].Error)
	}
}

func TestDecodeBatchTruncatedFinalLine(t *testing.T) {
	// A truncated upload: the final line has no newline and is cut mid-object.
	body := "{\"id\":\"a\"}\n{\"id\":\"b\",\"deadl"
	lines, errs, err := DecodeBatch(strings.NewReader(body), 0, 0)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(lines) != 1 || lines[0].ClientID != "a" {
		t.Fatalf("good lines = %+v, want only line 1", lines)
	}
	if len(errs) != 1 || errs[0].Line != 2 {
		t.Fatalf("errors = %+v, want one error on line 2", errs)
	}
}

func TestDecodeBatchOversizedLine(t *testing.T) {
	long := `{"id":"big","pad":"` + strings.Repeat("x", 200) + `"}`
	body := long + "\n{\"id\":\"ok\"}\n"
	lines, errs, err := DecodeBatch(strings.NewReader(body), 0, 64)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(lines) != 1 || lines[0].ClientID != "ok" || lines[0].Line != 2 {
		t.Fatalf("good lines = %+v", lines)
	}
	if len(errs) != 1 || errs[0].Line != 1 || !strings.Contains(errs[0].Error, "exceeds") {
		t.Fatalf("errors = %+v, want one oversize error on line 1", errs)
	}
}

// TestDecodeBatchOverlongLineThenGoodLine: a physical line longer than the
// reader's whole 64 KB buffer is consumed chunk by chunk and reported, and
// the line after it decodes from the same line buffer the long one was
// abandoned in.
func TestDecodeBatchOverlongLineThenGoodLine(t *testing.T) {
	long := `{"id":"big","pad":"` + strings.Repeat("x", 200<<10) + `"}`
	good := `{"id":"ok","accessStation":3,"outcomes":[{"rateMBs":40,"prob":1,"reward":500}]}`
	lines, errs, err := DecodeBatch(strings.NewReader(long+"\n"+good+"\n"), 0, 1024)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	if len(errs) != 1 || errs[0].Line != 1 || !strings.Contains(errs[0].Error, "exceeds") {
		t.Fatalf("errors = %+v, want one oversize error on line 1", errs)
	}
	if len(lines) != 1 || lines[0].ClientID != "ok" || lines[0].Line != 2 ||
		lines[0].Spec.AccessStation != 3 || len(lines[0].Spec.Outcomes) != 1 || lines[0].Spec.Outcomes[0].Reward != 500 {
		t.Fatalf("good lines = %+v", lines)
	}
}

// TestDecodeBatchLinesDoNotAliasLineBuffer: every line of a call is read
// into one buffer, so whatever the first line decoded to — its client id,
// its outcomes — must be its own copy and read the same after a second,
// longer line has been read over it; and after another call has reused the
// pooled reader.
func TestDecodeBatchLinesDoNotAliasLineBuffer(t *testing.T) {
	first := `{"id":"first-client","outcomes":[{"rateMBs":31,"prob":0.25,"reward":111},{"rateMBs":47,"prob":0.75,"reward":222}]}`
	second := `{"id":"SECOND-CLIENT-WITH-A-LONGER-NAME","outcomes":[{"rateMBs":99,"prob":1,"reward":999}],"deadlineMS":12345}`
	lines, errs, err := DecodeBatch(strings.NewReader(first+"\n"+second+"\n"), 0, 0)
	if err != nil || len(errs) != 0 || len(lines) != 2 {
		t.Fatalf("DecodeBatch: %d lines, errs %+v, err %v", len(lines), errs, err)
	}
	if _, _, err := DecodeBatch(strings.NewReader(strings.Repeat("z", len(first))+"\n"), 0, 0); err != nil {
		t.Fatal(err)
	}
	want := []OutcomeSpec{{RateMBs: 31, Prob: 0.25, Reward: 111}, {RateMBs: 47, Prob: 0.75, Reward: 222}}
	if got := lines[0]; got.ClientID != "first-client" || got.Line != 1 || !reflect.DeepEqual(got.Spec.Outcomes, want) {
		t.Fatalf("first line = %+v after the second was read", got)
	}
	if got := lines[1]; got.ClientID != "SECOND-CLIENT-WITH-A-LONGER-NAME" || got.Spec.DeadlineMS != 12345 {
		t.Fatalf("second line = %+v", got)
	}
}

func TestDecodeBatchLineLimit(t *testing.T) {
	body := strings.Repeat("{}\n", 5)
	_, _, err := DecodeBatch(strings.NewReader(body), 4, 0)
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if _, _, err := DecodeBatch(strings.NewReader(body), 5, 0); err != nil {
		t.Fatalf("batch at the limit failed: %v", err)
	}
}

func TestSpecPrice(t *testing.T) {
	// Explicit outcomes: probability-weighted mean reward, renormalized.
	spec := RequestSpec{Outcomes: []OutcomeSpec{
		{Prob: 0.25, RateMBs: 30, Reward: 100},
		{Prob: 0.25, RateMBs: 50, Reward: 300},
	}}
	if got := specPrice(spec); got != 200 {
		t.Fatalf("specPrice = %g, want 200", got)
	}
	// No outcomes: the deterministic default price.
	if got := specPrice(RequestSpec{}); got != defaultSpecPrice {
		t.Fatalf("default specPrice = %g, want %g", got, defaultSpecPrice)
	}
	// Degenerate mass: worthless, sheds first.
	if got := specPrice(RequestSpec{Outcomes: []OutcomeSpec{{Prob: 0, Reward: 999}}}); got != 0 {
		t.Fatalf("zero-mass specPrice = %g, want 0", got)
	}
}

// FuzzBatchDecode drives the NDJSON decoder with arbitrary bodies. The
// decoder must be total (no panics), must never fail the batch except
// via ErrBatchTooLarge, must never accept two lines with the same
// non-empty client id, and must be deterministic.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"b\"}\n"), 100, 256)
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"a\"}\n"), 100, 256)                         // duplicate ids
	f.Add([]byte("{\"id\":\"a\",\"deadl"), 100, 256)                                    // truncated line
	f.Add([]byte("{\"id\":\"big\",\"x\":\""+strings.Repeat("y", 512)+"\"}\n"), 100, 64) // oversized payload
	f.Add([]byte("\n\n\n{}\n\n"), 100, 256)                                             // blank-heavy
	f.Add([]byte("{} {}\n"), 100, 256)                                                  // trailing data
	f.Add([]byte(""), 1, 1)
	f.Fuzz(func(t *testing.T, body []byte, maxLines, maxLineBytes int) {
		if maxLines > 1<<16 {
			maxLines = 1 << 16
		}
		lines, errs, err := DecodeBatch(bytes.NewReader(body), maxLines, maxLineBytes)
		if err != nil && !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("non-limit batch failure from an in-memory reader: %v", err)
		}
		seen := map[string]bool{}
		for _, ln := range lines {
			if ln.Line < 1 {
				t.Fatalf("non-positive line number %d", ln.Line)
			}
			if ln.ClientID != "" {
				if seen[ln.ClientID] {
					t.Fatalf("duplicate client id %q accepted", ln.ClientID)
				}
				seen[ln.ClientID] = true
			}
		}
		for _, le := range errs {
			if le.Line < 1 || le.Error == "" {
				t.Fatalf("malformed LineError %+v", le)
			}
		}
		if err == nil {
			lines2, errs2, err2 := DecodeBatch(bytes.NewReader(body), maxLines, maxLineBytes)
			if err2 != nil || len(lines2) != len(lines) || len(errs2) != len(errs) {
				t.Fatalf("decode is not deterministic: (%d,%d,%v) then (%d,%d,%v)",
					len(lines), len(errs), err, len(lines2), len(errs2), err2)
			}
		}
	})
}
