package linecomm

import (
	"iter"

	"sparsehypercube/internal/graph"
)

// TreeRounds yields a k = 1 broadcast schedule on an arbitrary graph,
// round by round: a BFS spanning tree is built from source, and in each
// round every informed vertex that still has uninformed tree children
// calls the next one. The schedule is valid under Definition 1 —
// receivers are distinct (each child is called exactly once), calls are
// edge-disjoint (tree edges are distinct), callers are informed, one
// call per caller per round — and informs every vertex reachable from
// source, so on a connected graph it is complete. It is the general-
// graph workload of the CSR engine's differential suite and of
// benchtab's map-vs-CSR curve.
//
// Generating the whole schedule costs O(n + m) time and O(n) memory:
// the BFS, then a simulation that visits only the vertices with calls
// left to make.
//
// The yielded round and its call paths reuse storage between
// iterations; use CloneRound to retain one. An out-of-range source
// yields nothing.
func TreeRounds(g *graph.Graph, source uint64) iter.Seq[Round] {
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
		// next[v], the next child v calls, is the fill cursor first.
		off := make([]int32, n+1)
		for _, v := range order[1:] {
			off[parent[v]+1]++
		}
		for v := 1; v <= n; v++ {
			off[v] += off[v-1]
		}
		children := make([]int32, off[n])
		next := make([]int32, n)
		copy(next, off[:n])
		for _, v := range order[1:] {
			p := parent[v]
			children[next[p]] = v
			next[p]++
		}
		copy(next, off[:n])
		// Simulate over an active list: the informed vertices that still
		// have children to call, in the order they were informed. A
		// round's callers are exactly the active list; the next list is
		// those callers with children left, then the round's receivers
		// that have children — every caller was informed before every
		// receiver, so informed order holds. Each vertex enters the list
		// once and leaves it for good, so the whole run is O(n + m). The
		// BFS queue and the parent array are spent by now and hold the
		// two lists (n distinct vertices at most); they, the arena and
		// the Round buffer are reused across rounds.
		active := order[:0]
		if off[source] < off[source+1] {
			active = append(active, int32(source))
		}
		nextActive := parent[:0]
		var (
			round Round
			arena []uint64
		)
		for len(active) > 0 {
			calls := len(active)
			if cap(round) < calls {
				// Grow geometrically: a frontier that widens by a few
				// calls a round would otherwise reallocate every round.
				size := min(max(calls, 2*cap(round)), n)
				round = make(Round, size)
				arena = make([]uint64, 2*size)
			}
			round = round[:calls]
			arena = arena[:2*calls]
			nextActive = nextActive[:0]
			for ci, v := range active {
				w := children[next[v]]
				next[v]++
				arena[2*ci] = uint64(v)
				arena[2*ci+1] = uint64(w)
				round[ci] = Call{Path: arena[2*ci : 2*ci+2 : 2*ci+2]}
				if next[v] < off[v+1] {
					nextActive = append(nextActive, v)
				}
			}
			for ci := range calls {
				if w := arena[2*ci+1]; off[w] < off[w+1] {
					nextActive = append(nextActive, int32(w))
				}
			}
			active, nextActive = nextActive, active
			if !yield(round) {
				return
			}
		}
	}
}
