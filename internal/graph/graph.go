// Package graph implements the undirected-graph substrate for the sparse
// hypercube reproduction: a compact CSR adjacency representation, BFS-based
// metrics (distance, eccentricity, diameter), connectivity, dominating-set
// checks, and exports. Vertices are dense integers in [0, N).
//
// The package is deliberately minimal and allocation-conscious: the
// broadcast validator and the exhaustive scheme search sit in hot loops on
// top of it.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable simple undirected graph in compressed sparse row
// form. Neighbor lists are sorted, contain no duplicates and no self-loops.
type Graph struct {
	off []int32 // len n+1; adjacency of v is adj[off[v]:off[v+1]]
	adj []int32
	n   int
}

// NumVertices returns the order of the graph.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether {u, v} is an edge: the edge search of
// EdgeSlot (see slots.go), without the slot.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeSlot(u, v)
	return ok
}

// searchInt32 returns the index of x in the sorted slice ns, or -1. It
// is hand-rolled (not sort.Search) because it sits on the validators'
// per-hop path: a branchless-friendly linear scan for the short
// neighbor lists of sparse graphs, binary search above that.
func searchInt32(ns []int32, x int32) int {
	if len(ns) <= 16 {
		for i, w := range ns {
			if w == x {
				return i
			}
			if w > x {
				return -1
			}
		}
		return -1
	}
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns) && ns[lo] == x {
		return lo
	}
	return -1
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// Edges calls fn for every undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges are coalesced; self-loops are rejected.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. It panics on out-of-range
// vertices or self-loops; duplicates are tolerated and coalesced by Finish.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Finish builds the immutable graph.
func (b *Builder) Finish() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	// Dedup in place.
	uniq := b.edges[:0]
	for i, e := range b.edges {
		if i == 0 || e != b.edges[i-1] {
			uniq = append(uniq, e)
		}
	}
	b.edges = uniq

	deg := make([]int32, b.n+1)
	for _, e := range b.edges {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	off := make([]int32, b.n+1)
	for v := 1; v <= b.n; v++ {
		off[v] = off[v-1] + deg[v]
	}
	adj := make([]int32, off[b.n])
	cursor := make([]int32, b.n)
	copy(cursor, off[:b.n])
	for _, e := range b.edges {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	g := &Graph{off: off, adj: adj, n: b.n}
	// Neighbor lists are sorted because edges were processed in sorted
	// order for the low endpoint; the high-endpoint insertions also happen
	// in sorted order of the low endpoint, which is the neighbor value.
	return g
}

// FromEdges is a convenience constructor.
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Finish()
}
