// Package graph provides weighted undirected graph primitives used to model
// the backhaul network that interconnects base stations in an MEC network.
//
// The package is deliberately small: Eq. (2) reads only the shortest-path
// delay between two stations, so the package computes the all-pairs
// distance table (Distances) and the connected components, and keeps no
// path trees. internal/mec builds the table once per network.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrVertexOutOfRange is returned when a vertex index does not exist.
var ErrVertexOutOfRange = errors.New("graph: vertex out of range")

// Edge is a weighted undirected edge between two vertices.
type Edge struct {
	// U and V are the endpoint vertex indices.
	U, V int
	// Weight is the edge cost. For MEC backhaul graphs this is the
	// per-unit transmission delay of the link in milliseconds.
	Weight float64
}

// Graph is a weighted undirected graph over vertices 0..N-1 stored in
// adjacency-list form. The zero value is an empty graph; use New to size it.
type Graph struct {
	n    int
	adj  [][]halfEdge
	edge []Edge
}

// halfEdge is the adjacency-list representation of one direction of an edge.
type halfEdge struct {
	to     int
	weight float64
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		adj: make([][]halfEdge, n),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edge) }

// Edges returns a copy of all edges in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edge))
	copy(out, g.edge)
	return out
}

// AddEdge inserts an undirected edge {u, v} with the given weight and
// returns its edge index. Self-loops and negative weights are rejected.
func (g *Graph) AddEdge(u, v int, weight float64) (int, error) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, fmt.Errorf("%w: (%d, %d) with n=%d", ErrVertexOutOfRange, u, v, g.n)
	}
	if u == v {
		return 0, fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if weight < 0 || math.IsNaN(weight) {
		return 0, fmt.Errorf("graph: invalid weight %v on edge (%d, %d)", weight, u, v)
	}
	idx := len(g.edge)
	g.edge = append(g.edge, Edge{U: u, V: v, Weight: weight})
	g.adj[u] = append(g.adj[u], halfEdge{to: v, weight: weight})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, weight: weight})
	return idx, nil
}

// Components returns the connected components, each in ascending vertex
// order, ordered by their smallest vertex.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, he := range g.adj[u] {
				if !seen[he.to] {
					seen[he.to] = true
					stack = append(stack, he.to)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
