package graph

import (
	"math/rand"
	"testing"
)

// graphFromBytes decodes a fuzz payload into a graph: byte 0 picks the
// vertex count in [2, 33], then consecutive byte pairs are candidate
// edges (reduced mod n, self-loops dropped). Duplicate pairs are
// deliberately kept so the builder's coalescing is always in play.
func graphFromBytes(data []byte) (*Graph, [][2]int) {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := int(data[0])%32 + 2
	b := NewBuilder(n)
	var edges [][2]int
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		b.AddEdge(u, v)
		if u > v {
			u, v = v, u
		}
		edges = append(edges, [2]int{u, v})
	}
	return b.Finish(), edges
}

// checkSlotContract checks the edge-slot injection contract on g, built
// from the edge pairs inserted (duplicates allowed): every slot lies in
// [0, 2·NumEdges), is claimed by one edge only, is the same from either
// endpoint and equals the closed form off[c] + rank of the other
// endpoint in c's list (c the endpoint with the shorter neighbor list,
// the lower id on a tie); a slot exists, and HasEdge holds, exactly
// for the inserted pairs; and a rebuild from the pairs in reverse
// order, endpoints swapped, numbers every edge the same.
func checkSlotContract(t *testing.T, g *Graph, inserted [][2]int) {
	t.Helper()
	n := g.NumVertices()
	if g.NumEdgeSlots() != 2*g.NumEdges() {
		t.Fatalf("slot universe %d != 2·NumEdges = %d", g.NumEdgeSlots(), 2*g.NumEdges())
	}
	seen := make(map[int][2]int, g.NumEdges())
	g.Edges(func(u, v int) {
		s, ok := g.EdgeSlot(u, v)
		if !ok {
			t.Fatalf("edge {%d,%d} has no slot", u, v)
		}
		if s < 0 || s >= g.NumEdgeSlots() {
			t.Fatalf("slot %d outside [0,%d)", s, g.NumEdgeSlots())
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("slot %d claimed by {%d,%d} and {%d,%d}", s, prev[0], prev[1], u, v)
		}
		seen[s] = [2]int{u, v}
		if s2, ok2 := g.EdgeSlot(v, u); !ok2 || s2 != s {
			t.Fatalf("EdgeSlot(%d,%d)=%d,%v but EdgeSlot(%d,%d)=%d,%v", u, v, s, ok, v, u, s2, ok2)
		}
		c, other := u, v
		if g.Degree(v) < g.Degree(u) {
			c, other = v, u
		}
		rank := -1
		for i, w := range g.Neighbors(c) {
			if int(w) == other {
				rank = i
			}
		}
		if want := int(g.off[c]) + rank; rank < 0 || s != want {
			t.Fatalf("slot of {%d,%d} = %d, want off[%d] + rank %d = %d", u, v, s, c, rank, want)
		}
	})
	if len(seen) != g.NumEdges() {
		t.Fatalf("numbering covers %d of %d edges", len(seen), g.NumEdges())
	}
	// A pair has a slot, and HasEdge holds, exactly when it was
	// inserted: non-edges and self-loops have none, nor do out-of-range
	// pairs.
	edge := make(map[[2]int]bool, len(inserted))
	for _, e := range inserted {
		edge[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := edge[[2]int{min(u, v), max(u, v)}]
			if _, ok := g.EdgeSlot(u, v); ok != want || g.HasEdge(u, v) != want {
				t.Fatalf("{%d,%d}: EdgeSlot ok=%v, HasEdge=%v, inserted=%v", u, v, ok, g.HasEdge(u, v), want)
			}
		}
	}
	for _, pair := range [][2]int{{-1, 0}, {0, n}, {n, n + 1}, {-2, -1}} {
		if _, ok := g.EdgeSlot(pair[0], pair[1]); ok {
			t.Fatalf("out-of-range pair %v got a slot", pair)
		}
	}
	b := NewBuilder(n)
	for i := len(inserted) - 1; i >= 0; i-- {
		b.AddEdge(inserted[i][1], inserted[i][0])
	}
	g2 := b.Finish()
	if g2.NumEdgeSlots() != g.NumEdgeSlots() {
		t.Fatalf("reordered build: %d slots vs %d", g2.NumEdgeSlots(), g.NumEdgeSlots())
	}
	g.Edges(func(u, v int) {
		s1, _ := g.EdgeSlot(u, v)
		s2, ok := g2.EdgeSlot(u, v)
		if !ok || s1 != s2 {
			t.Fatalf("slot of {%d,%d} unstable under insertion order: %d vs %d (ok=%v)", u, v, s1, s2, ok)
		}
	})
}

// FuzzEdgeSlotNumbering checks the slot contract (checkSlotContract) on
// arbitrary constructions.
func FuzzEdgeSlotNumbering(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0})       // C4 plus dup potential
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0})             // duplicates both ways
	f.Add([]byte{30, 5, 9, 9, 5, 17, 3, 29, 29})   // self-loop byte pair dropped
	f.Add([]byte{8})                               // edgeless
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 4, 5}) // star plus a leaf edge: degree decides
	f.Fuzz(func(t *testing.T, data []byte) {
		g, inserted := graphFromBytes(data)
		checkSlotContract(t, g, inserted)
	})
}

// FuzzGraphConstruction checks the builder's structural invariants on
// arbitrary inputs: coalesced duplicates, sorted neighbor lists,
// symmetric adjacency, and degree sums.
func FuzzGraphConstruction(f *testing.F) {
	f.Add([]byte{2, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{15, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, inserted := graphFromBytes(data)
		distinct := make(map[[2]int]bool, len(inserted))
		for _, e := range inserted {
			distinct[e] = true
		}
		if g.NumEdges() != len(distinct) {
			t.Fatalf("NumEdges %d, want %d distinct of %d inserted", g.NumEdges(), len(distinct), len(inserted))
		}
		degSum := 0
		for v := 0; v < g.NumVertices(); v++ {
			ns := g.Neighbors(v)
			degSum += len(ns)
			for i, w := range ns {
				if i > 0 && ns[i-1] >= w {
					t.Fatalf("neighbors of %d not strictly sorted: %v", v, ns)
				}
				if !g.HasEdge(int(w), v) {
					t.Fatalf("adjacency not symmetric: %d->%d", v, w)
				}
				if !distinct[[2]int{min(v, int(w)), max(v, int(w))}] {
					t.Fatalf("phantom edge {%d,%d}", v, w)
				}
			}
		}
		if degSum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2m = %d", degSum, 2*g.NumEdges())
		}
	})
}

// TestBuilderRejectsBadEdges pins the panic contract: self-loops and
// out-of-range endpoints are construction bugs, not data.
func TestBuilderRejectsBadEdges(t *testing.T) {
	for _, tc := range []struct {
		name string
		u, v int
	}{
		{"self-loop", 3, 3},
		{"negative", -1, 2},
		{"beyond-n", 0, 8},
		{"both-bad", -1, 99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddEdge(%d,%d) did not panic", tc.u, tc.v)
				}
			}()
			NewBuilder(8).AddEdge(tc.u, tc.v)
		})
	}
}

// TestEdgeSlotRandomGraphs is the deterministic (non-fuzz) sweep of the
// same contract over larger random graphs, so `go test` alone gives
// coverage beyond the seed corpus. Odd seeds add a hub adjacent to a
// third of the vertices, so degree rather than id picks the scanned
// endpoint on many edges.
func TestEdgeSlotRandomGraphs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 2
		var inserted [][2]int
		for i, m := 0, rng.Intn(4*n); i < m; i++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				inserted = append(inserted, [2]int{u, v})
			}
		}
		if seed%2 == 1 {
			for v := 1; v < n; v += 3 {
				inserted = append(inserted, [2]int{0, v})
			}
		}
		b := NewBuilder(n)
		for _, e := range inserted {
			b.AddEdge(e[0], e[1])
		}
		checkSlotContract(t, b.Finish(), inserted)
	}
}
