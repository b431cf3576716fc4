package serve

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// TestNonFiniteSpecRejected: JSON cannot carry a NaN or an infinity, but
// Go callers of Submit and SubmitBatch can. A non-finite deadline, task
// work or task output is refused with ErrBadSpec by Submit and by
// ValidateSpec, the check the batch handler turns into a line error;
// SubmitBatch sheds it at intake, never admitting it; and a checkpoint
// taken afterwards still encodes.
func TestNonFiniteSpecRejected(t *testing.T) {
	e := testEngine(t, Config{})
	var specs []RequestSpec
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		specs = append(specs,
			RequestSpec{AccessStation: 0, DeadlineMS: v},
			RequestSpec{AccessStation: 1, Tasks: []TaskSpec{{Name: "render", OutputKb: 64, WorkMS: v}}},
			RequestSpec{AccessStation: 2, Tasks: []TaskSpec{{Name: "render", OutputKb: v, WorkMS: 10}}},
		)
	}
	for i, spec := range specs {
		label := fmt.Sprintf("spec %d (%+v)", i, spec)
		if _, _, err := e.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: Submit error %v, want ErrBadSpec", label, err)
		}
		if err := ValidateSpec(e.cfg.Net, spec); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("%s: ValidateSpec error %v, want ErrBadSpec", label, err)
		}
	}
	res, err := e.SubmitBatch(append([]RequestSpec{{AccessStation: 3}}, specs...))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, id := range res.IDs {
		rec, ok, err := e.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("batch line %d: id %d unknown", k, id)
		}
		if want := k > 0; (rec.State == StateShed) != want {
			t.Fatalf("batch line %d: state %q, shed %v wanted", k, rec.State, want)
		}
	}
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(filepath.Join(t.TempDir(), "ck.json"), ck); err != nil {
		t.Fatalf("checkpoint after non-finite specs: %v", err)
	}
}
