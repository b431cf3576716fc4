package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Inf is the distance reported between disconnected vertices.
var Inf = math.Inf(1)

// ShortestPaths holds the single-source shortest path tree rooted at Source.
type ShortestPaths struct {
	// Source is the root vertex.
	Source int
	// Dist[v] is the total weight of the shortest path Source -> v, or Inf
	// if v is unreachable.
	Dist []float64
	// Parent[v] is the predecessor of v on the shortest path, -1 for the
	// source itself and for unreachable vertices.
	Parent []int
	// ParentEdge[v] is the edge index connecting Parent[v] to v, -1 when
	// undefined.
	ParentEdge []int
}

// PathTo reconstructs the vertex sequence Source..v. It returns nil when v
// is unreachable.
func (sp *ShortestPaths) PathTo(v int) []int {
	if v < 0 || v >= len(sp.Dist) || math.IsInf(sp.Dist[v], 1) {
		return nil
	}
	var rev []int
	for u := v; u != -1; u = sp.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgesTo reconstructs the edge-index sequence of the shortest path
// Source..v. It returns nil when v is unreachable and an empty slice when
// v == Source.
func (sp *ShortestPaths) EdgesTo(v int) []int {
	if v < 0 || v >= len(sp.Dist) || math.IsInf(sp.Dist[v], 1) {
		return nil
	}
	rev := []int{}
	for u := v; sp.Parent[u] != -1; u = sp.Parent[u] {
		rev = append(rev, sp.ParentEdge[u])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Dijkstra computes single-source shortest paths from source using a binary
// heap. All edge weights are non-negative by construction of Graph.
func (g *Graph) Dijkstra(source int) (*ShortestPaths, error) {
	if source < 0 || source >= g.n {
		return nil, fmt.Errorf("%w: source %d with n=%d", ErrVertexOutOfRange, source, g.n)
	}
	sp := &ShortestPaths{
		Source:     source,
		Dist:       make([]float64, g.n),
		Parent:     make([]int, g.n),
		ParentEdge: make([]int, g.n),
	}
	for v := range sp.Dist {
		sp.Dist[v] = Inf
		sp.Parent[v] = -1
		sp.ParentEdge[v] = -1
	}
	sp.Dist[source] = 0
	q := pq{{v: source, dist: 0}}
	done := make([]bool, g.n)
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		for _, he := range g.adj[it.v] {
			nd := it.dist + he.weight
			if nd < sp.Dist[he.to] {
				sp.Dist[he.to] = nd
				sp.Parent[he.to] = it.v
				sp.ParentEdge[he.to] = he.idx
				heap.Push(&q, pqItem{v: he.to, dist: nd})
			}
		}
	}
	return sp, nil
}

// AllPairs holds shortest-path distances and path reconstruction data for
// every ordered vertex pair.
type AllPairs struct {
	n  int
	sp []*ShortestPaths
}

// AllPairsShortestPaths runs Dijkstra from every vertex. On the sparse
// backhaul graphs used here this is faster than Floyd-Warshall and keeps
// per-source path trees for edge reconstruction.
func (g *Graph) AllPairsShortestPaths() *AllPairs {
	ap := &AllPairs{n: g.n, sp: make([]*ShortestPaths, g.n)}
	for s := 0; s < g.n; s++ {
		sp, err := g.Dijkstra(s)
		if err != nil {
			// Unreachable: s iterates valid vertices only.
			panic(err)
		}
		ap.sp[s] = sp
	}
	return ap
}

// Dist returns the shortest distance between u and v, or Inf when
// disconnected or out of range.
func (ap *AllPairs) Dist(u, v int) float64 {
	if u < 0 || u >= ap.n || v < 0 || v >= ap.n {
		return Inf
	}
	return ap.sp[u].Dist[v]
}

// PathEdges returns the edge indices of a shortest u..v path, nil when
// disconnected.
func (ap *AllPairs) PathEdges(u, v int) []int {
	if u < 0 || u >= ap.n {
		return nil
	}
	return ap.sp[u].EdgesTo(v)
}

// Nearest returns the vertex in candidates closest to u (excluding u itself
// unless it is the only candidate) together with its distance. It returns
// (-1, Inf) when no candidate is reachable.
func (ap *AllPairs) Nearest(u int, candidates []int) (int, float64) {
	best, bestD := -1, Inf
	for _, c := range candidates {
		if c == u {
			continue
		}
		if d := ap.Dist(u, c); d < bestD {
			best, bestD = c, d
		}
	}
	if best == -1 {
		for _, c := range candidates {
			if c == u {
				return u, 0
			}
		}
	}
	return best, bestD
}

// FloydWarshall computes all-pairs shortest distances with the classic
// O(n^3) dynamic program. It exists primarily as an independent oracle for
// property-testing Dijkstra.
func (g *Graph) FloydWarshall() [][]float64 {
	d := make([][]float64, g.n)
	for i := range d {
		d[i] = make([]float64, g.n)
		for j := range d[i] {
			if i != j {
				d[i][j] = Inf
			}
		}
	}
	for _, e := range g.edge {
		if e.Weight < d[e.U][e.V] {
			d[e.U][e.V] = e.Weight
			d[e.V][e.U] = e.Weight
		}
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			dik := d[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < g.n; j++ {
				if nd := dik + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}
