package graph

import (
	"container/heap"
	"math"
)

// Inf is the distance reported between disconnected vertices.
var Inf = math.Inf(1)

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

// Distances returns the shortest-path distance between every ordered
// vertex pair as one row-major N×N table: entry u*N+v is the weight of a
// shortest u–v path, 0 on the diagonal and Inf between disconnected
// vertices. It runs Dijkstra with a binary heap from every vertex; on the
// sparse backhaul graphs used here that is faster than Floyd-Warshall.
// All edge weights are non-negative by construction of Graph.
func (g *Graph) Distances() []float64 {
	n := g.n
	dist := make([]float64, n*n)
	for i := range dist {
		dist[i] = Inf
	}
	done := make([]bool, n)
	var q pq
	for s := 0; s < n; s++ {
		row := dist[s*n : (s+1)*n]
		row[s] = 0
		clear(done)
		q = append(q[:0], pqItem{v: s, dist: 0})
		for q.Len() > 0 {
			it := heap.Pop(&q).(pqItem)
			if done[it.v] {
				continue
			}
			done[it.v] = true
			for _, he := range g.adj[it.v] {
				if nd := it.dist + he.weight; nd < row[he.to] {
					row[he.to] = nd
					heap.Push(&q, pqItem{v: he.to, dist: nd})
				}
			}
		}
	}
	return dist
}

// FloydWarshall computes all-pairs shortest distances with the classic
// O(n^3) dynamic program. It exists as an independent oracle for
// property-testing Distances.
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
