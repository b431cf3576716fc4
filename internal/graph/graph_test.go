package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has N=%d M=%d", g.N(), g.M())
	}
	if d := g.Distances(); len(d) != 0 {
		t.Fatalf("empty graph has a %d-entry distance table", len(d))
	}
	g = New(-5)
	if g.N() != 0 {
		t.Fatalf("negative size should clamp to 0, got %d", g.N())
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	cases := []struct {
		name    string
		u, v    int
		w       float64
		wantErr bool
	}{
		{"valid", 0, 1, 2.5, false},
		{"self-loop", 1, 1, 1, true},
		{"negative weight", 0, 2, -1, true},
		{"nan weight", 0, 2, math.NaN(), true},
		{"u out of range", -1, 2, 1, true},
		{"v out of range", 0, 3, 1, true},
		{"zero weight ok", 1, 2, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := g.AddEdge(tc.u, tc.v, tc.w)
			if (err != nil) != tc.wantErr {
				t.Fatalf("AddEdge(%d, %d, %v) error = %v, wantErr %v", tc.u, tc.v, tc.w, err, tc.wantErr)
			}
		})
	}
}

func TestDijkstraSimple(t *testing.T) {
	// 0 -1- 1 -1- 2, plus a heavy shortcut 0-2 of weight 5.
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 1, 2, 1)
	mustEdge(t, g, 0, 2, 5)
	wantTable(t, g.Distances(), []float64{
		0, 1, 2,
		1, 0, 1,
		2, 1, 0,
	})
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1, 1)
	inf := math.Inf(1)
	wantTable(t, g.Distances(), []float64{
		0, 1, inf,
		1, 0, inf,
		inf, inf, 0,
	})
}

// wantTable fails unless the n×n distance table d equals want entry for
// entry.
func wantTable(t *testing.T, d, want []float64) {
	t.Helper()
	if len(d) != len(want) {
		t.Fatalf("table has %d entries, want %d", len(d), len(want))
	}
	n := int(math.Sqrt(float64(len(want))))
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("dist(%d, %d) = %v, want %v", i/n, i%n, d[i], w)
		}
	}
}

// TestDijkstraMatchesFloydWarshall cross-checks Distances' table against
// the Floyd-Warshall oracle on random graphs, disconnected pairs (+Inf)
// included.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					if _, err := g.AddEdge(u, v, 1+rng.Float64()*9); err != nil {
						return false
					}
				}
			}
		}
		fw := g.FloydWarshall()
		dist := g.Distances()
		if len(dist) != n*n {
			return false
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				d1, d2 := dist[u*n+v], fw[u][v]
				if math.IsInf(d1, 1) != math.IsInf(d2, 1) {
					return false
				}
				if !math.IsInf(d1, 1) && math.Abs(d1-d2) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	mustEdge(t, g, 0, 1, 1)
	mustEdge(t, g, 2, 3, 1)
	mustEdge(t, g, 4, 1, 1)
	if got, want := fmt.Sprint(g.Components()), "[[0 1 4] [2 3]]"; got != want {
		t.Fatalf("components = %s, want %s (each ascending, by smallest vertex)", got, want)
	}
	mustEdge(t, g, 1, 2, 1)
	if got := g.Components(); len(got) != 1 || len(got[0]) != 5 {
		t.Fatalf("connected graph has components %v", got)
	}
}

func TestEdgesCopy(t *testing.T) {
	g := New(2)
	mustEdge(t, g, 0, 1, 1)
	edges := g.Edges()
	edges[0].Weight = 99
	if g.Edges()[0].Weight != 1 {
		t.Fatal("Edges must return a copy")
	}
}

func mustEdge(t *testing.T, g *Graph, u, v int, w float64) {
	t.Helper()
	if _, err := g.AddEdge(u, v, w); err != nil {
		t.Fatalf("AddEdge(%d, %d, %v): %v", u, v, w, err)
	}
}
