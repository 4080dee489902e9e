package linecomm

import (
	"iter"
	"reflect"
	"testing"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/topo"
)

// treeRoundsRescan is the reference simulation TreeRounds is pinned to:
// the same BFS tree and child order, but each round rescans every
// informed vertex for one with children left — O(rounds · n), too slow
// for large skewed graphs and obviously right on small ones.
func treeRoundsRescan(g *graph.Graph, source uint64) iter.Seq[Round] {
	return func(yield func(Round) bool) {
		n := g.NumVertices()
		if source >= uint64(n) {
			return
		}
		// BFS from source; children of v are the vertices v first reached.
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = -1
		}
		order := make([]int32, 0, n) // vertices in BFS discovery order
		parent[source] = int32(source)
		order = append(order, int32(source))
		for head := 0; head < len(order); head++ {
			v := order[head]
			for _, w := range g.Neighbors(int(v)) {
				if parent[w] < 0 {
					parent[w] = v
					order = append(order, w)
				}
			}
		}
		// children[off[v]:off[v+1]] in discovery order: earlier-found
		// children are informed first, keeping rounds frontier-shaped.
		deg := make([]int32, n+1)
		for _, v := range order[1:] {
			deg[parent[v]+1]++
		}
		off := make([]int32, n+1)
		for v := 1; v <= n; v++ {
			off[v] = off[v-1] + deg[v]
		}
		children := make([]int32, off[n])
		cursor := make([]int32, n)
		copy(cursor, off[:n])
		for _, v := range order[1:] {
			p := parent[v]
			children[cursor[p]] = v
			cursor[p]++
		}
		// Simulate: informed vertices in the order they were informed,
		// each with a cursor over its remaining children. One arena and
		// one Round buffer are reused across rounds.
		next := make([]int32, n)
		copy(next, off[:n])
		informed := make([]int32, 0, n)
		informed = append(informed, int32(source))
		var (
			round Round
			arena []uint64
		)
		for {
			calls := 0
			for _, v := range informed {
				if next[v] < off[v+1] {
					calls++
				}
			}
			if calls == 0 {
				return
			}
			if cap(round) < calls {
				round = make(Round, calls)
				arena = make([]uint64, 2*calls)
			}
			round = round[:calls]
			arena = arena[:2*calls]
			ci := 0
			nInformed := len(informed)
			for _, v := range informed[:nInformed] {
				if next[v] == off[v+1] {
					continue
				}
				w := children[next[v]]
				next[v]++
				arena[2*ci] = uint64(v)
				arena[2*ci+1] = uint64(w)
				round[ci] = Call{Path: arena[2*ci : 2*ci+2 : 2*ci+2]}
				informed = append(informed, w)
				ci++
			}
			if !yield(round) {
				return
			}
		}
	}
}

// collectRounds drains a round sequence into retained copies.
func collectRounds(seq iter.Seq[Round]) []Round {
	var rounds []Round
	for r := range seq {
		rounds = append(rounds, CloneRound(r))
	}
	return rounds
}

// TestTreeRoundsMatchesRescan pins TreeRounds' active-list simulation to
// the rescanning reference, round for round, on the general-graph zoo
// (random regular, k-tree, sparse Erdős–Rényi, tree plus chords), a
// star, a path and a two-component graph, from the first, second and
// last vertex and from an out-of-range source.
func TestTreeRoundsMatchesRescan(t *testing.T) {
	twoComponents := graph.NewBuilder(40)
	for v := 0; v < 19; v++ {
		twoComponents.AddEdge(v, v+1)
	}
	for v := 21; v < 40; v++ {
		twoComponents.AddEdge(20, v)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", topo.Star(256)},
		{"path", topo.Path(64)},
		{"two-components", twoComponents.Finish()},
	}
	for seed := int64(1); seed <= 4; seed++ {
		graphs = append(graphs, []struct {
			name string
			g    *graph.Graph
		}{
			{"regular", topo.RandomRegular(128, 4, seed)},
			{"ktree", topo.RandomKTree(128, 3, seed)},
			{"gnp", topo.Gnp(128, 0.03, seed)},
			{"connected", topo.RandomConnected(128, 64, seed)},
		}...)
	}
	for _, tc := range graphs {
		n := uint64(tc.g.NumVertices())
		for _, src := range []uint64{0, 1, n - 1, n} {
			want := collectRounds(treeRoundsRescan(tc.g, src))
			got := collectRounds(TreeRounds(tc.g, src))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s (n=%d) from %d: TreeRounds diverges from the rescan:\nrescan: %v\ngot:    %v", tc.name, n, src, want, got)
			}
			if src < n && len(want) == 0 && tc.g.Degree(int(src)) > 0 {
				t.Fatalf("%s from %d: no rounds", tc.name, src)
			}
		}
	}
}

// TestTreeRoundsAllocations: TreeRounds allocates its BFS arrays and
// round storage once, not per round. A star's broadcast is one call per
// round, so draining the 2^12-vertex star (4,095 rounds) may allocate
// only a constant more than the 2^8-vertex one (255 rounds).
func TestTreeRoundsAllocations(t *testing.T) {
	drain := func(g *graph.Graph) float64 {
		return testing.AllocsPerRun(5, func() {
			for range TreeRounds(g, 0) {
			}
		})
	}
	small, large := drain(topo.Star(1<<8)), drain(topo.Star(1<<12))
	if large > small+8 {
		t.Fatalf("draining the 2^12 star allocates %.0f times, the 2^8 star %.0f: per-round allocation", large, small)
	}
}
