package cluster_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

// TestClusterRefusesNonFiniteSpec: a NaN or infinite deadline, task work
// or task output from a Go caller is refused with ErrBadSpec by Submit,
// by SubmitBatch, and by ValidateSpec (the batch handler's line check),
// so the manifest written on Stop still encodes.
func TestClusterRefusesNonFiniteSpec(t *testing.T) {
	net := islandNetwork(t, 2, 2)
	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	good := serve.RequestSpec{AccessStation: 0, DurationSlots: 2}
	if _, _, err := c.Submit(good); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, spec := range []serve.RequestSpec{
			{AccessStation: 1, DeadlineMS: v},
			{AccessStation: 2, Tasks: []serve.TaskSpec{{Name: "render", OutputKb: 64, WorkMS: v}}},
			{AccessStation: 3, Tasks: []serve.TaskSpec{{Name: "render", OutputKb: v, WorkMS: 10}}},
		} {
			if _, _, err := c.Submit(spec); !errors.Is(err, serve.ErrBadSpec) {
				t.Fatalf("%+v: Submit error %v, want ErrBadSpec", spec, err)
			}
			if _, err := c.SubmitBatch([]serve.RequestSpec{good, spec}); !errors.Is(err, serve.ErrBadSpec) {
				t.Fatalf("%+v: SubmitBatch error %v, want ErrBadSpec", spec, err)
			}
			if err := c.ValidateSpec(spec); !errors.Is(err, serve.ErrBadSpec) {
				t.Fatalf("%+v: ValidateSpec error %v, want ErrBadSpec", spec, err)
			}
		}
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	<-c.Done()
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
}
