package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWaxmanConnectedAndSized(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(48)
		topo, err := Waxman(Config{N: n}, rng)
		if err != nil {
			return false
		}
		return topo.Graph.N() == n && len(topo.Graph.Components()) == 1 && len(topo.Nodes) == n
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWaxmanSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	topo, err := Waxman(Config{N: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Graph.N() != 1 || topo.Graph.M() != 0 {
		t.Fatalf("single-node topology has N=%d M=%d", topo.Graph.N(), topo.Graph.M())
	}
}

func TestWaxmanParamValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []Config{
		{N: 0},
		{N: -3},
		{N: 5, Alpha: 1.5},
		{N: 5, Beta: -0.1},
		{N: 5, MinDelayMS: 5, MaxDelayMS: 1},
		{N: 5, MinDelayMS: -1, MaxDelayMS: 2},
	}
	for i, cfg := range cases {
		if _, err := Waxman(cfg, rng); err == nil {
			t.Errorf("case %d (%+v): want error", i, cfg)
		}
	}
}

func TestWaxmanDelayBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	topo, err := Waxman(Config{N: 30, MinDelayMS: 2, MaxDelayMS: 7}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range topo.Graph.Edges() {
		if e.Weight < 2 || e.Weight > 7 {
			t.Fatalf("edge weight %v outside [2, 7]", e.Weight)
		}
	}
}

func TestWaxmanDensityRespondsToAlpha(t *testing.T) {
	rng1 := rand.New(rand.NewSource(4))
	rng2 := rand.New(rand.NewSource(4))
	sparse, err := Waxman(Config{N: 40, Alpha: 0.05, Beta: 0.4}, rng1)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Waxman(Config{N: 40, Alpha: 0.9, Beta: 0.4}, rng2)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Graph.M() >= dense.Graph.M() {
		t.Fatalf("alpha=0.05 gave %d edges, alpha=0.9 gave %d; want strictly more for denser",
			sparse.Graph.M(), dense.Graph.M())
	}
}

func TestTransitStub(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	topo, err := TransitStub(3, 2, 4, Config{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * (1 + 2*4)
	if topo.Graph.N() != want {
		t.Fatalf("transit-stub size %d, want %d", topo.Graph.N(), want)
	}
	if len(topo.Graph.Components()) != 1 {
		t.Fatal("transit-stub topology must be connected")
	}
}

func TestTransitStubValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := TransitStub(0, 1, 2, Config{}, rng); err == nil {
		t.Error("want error for zero core")
	}
	if _, err := TransitStub(2, -1, 2, Config{}, rng); err == nil {
		t.Error("want error for negative stubs")
	}
	if _, err := TransitStub(2, 1, 0, Config{}, rng); err == nil {
		t.Error("want error for zero stub size")
	}
}

func TestWaxmanDeterministic(t *testing.T) {
	a, err := Waxman(Config{N: 20}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Waxman(Config{N: 20}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.M() != b.Graph.M() {
		t.Fatalf("same seed produced %d vs %d edges", a.Graph.M(), b.Graph.M())
	}
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}
