package graph

import (
	"math/bits"

	"sparsehypercube/internal/bitvec"
)

// BFS returns the distance from src to every vertex (-1 if unreachable).
func BFS(g *Graph, src int) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	bfsInto(g, src, dist, nil)
	return dist
}

// bfsInto runs BFS from src writing distances into dist (which must be
// pre-filled with -1 and have length NumVertices). queue, if non-nil, is
// used as scratch space to avoid allocation across repeated calls.
func bfsInto(g *Graph, src int, dist []int32, queue []int32) {
	if queue == nil {
		queue = make([]int32, 0, g.NumVertices())
	}
	queue = queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, w := range g.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dv + 1
				queue = append(queue, w)
			}
		}
	}
}

// ShortestPath returns one shortest u-v path as a vertex sequence
// (inclusive of both endpoints), or nil if v is unreachable from u.
func ShortestPath(g *Graph, u, v int) []int {
	if u == v {
		return []int{u}
	}
	prev := make([]int32, g.NumVertices())
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = int32(u)
	queue := []int32{int32(u)}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, w := range g.Neighbors(int(x)) {
			if prev[w] < 0 {
				prev[w] = x
				if int(w) == v {
					return tracePath(prev, u, v)
				}
				queue = append(queue, w)
			}
		}
	}
	return nil
}

func tracePath(prev []int32, u, v int) []int {
	var rev []int
	for x := v; ; x = int(prev[x]) {
		rev = append(rev, x)
		if x == u {
			break
		}
	}
	path := make([]int, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

// Eccentricity returns the greatest distance from v to any vertex, or -1
// if the graph is disconnected from v.
func Eccentricity(g *Graph, v int) int {
	dist := BFS(g, v)
	ecc := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc
}

// Diameter returns the diameter of g (max eccentricity), or -1 if g is
// disconnected or empty. It runs BFS from every vertex: fine for the
// at-most-2^20-vertex graphs used in the experiments, and exact.
func Diameter(g *Graph) int {
	n := g.NumVertices()
	if n == 0 {
		return -1
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	diam := 0
	for v := 0; v < n; v++ {
		for i := range dist {
			dist[i] = -1
		}
		bfsInto(g, v, dist, queue)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if int(d) > diam {
				diam = int(d)
			}
		}
	}
	return diam
}

// IsConnected reports whether g is connected (the empty graph is not; the
// single vertex is).
func IsConnected(g *Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	dist := BFS(g, 0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// IsBipartite reports whether g is 2-colorable.
func IsBipartite(g *Graph) bool {
	n := g.NumVertices()
	color := make([]int8, n)
	var queue []int32
	for s := 0; s < n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(int(v)) {
				switch color[w] {
				case 0:
					color[w] = -color[v]
					queue = append(queue, w)
				case color[v]:
					return false
				}
			}
		}
	}
	return true
}

// IsTree reports whether g is connected and acyclic.
func IsTree(g *Graph) bool {
	return IsConnected(g) && g.NumEdges() == g.NumVertices()-1
}

// IsDominatingSet reports whether set dominates g: every vertex is in set
// or adjacent to a member of set.
func IsDominatingSet(g *Graph, set *bitvec.Set) bool {
	if set.Len() != g.NumVertices() {
		panic("graph: dominating set universe mismatch")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if set.Get(v) {
			continue
		}
		dominated := false
		for _, w := range g.Neighbors(v) {
			if set.Get(int(w)) {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// MinDominatingSetSize computes the domination number of g exactly by
// branch and bound. Intended for small graphs (n <= ~32); panics above 63
// vertices.
func MinDominatingSetSize(g *Graph) int {
	n := g.NumVertices()
	if n > 63 {
		panic("graph: MinDominatingSetSize limited to 63 vertices")
	}
	// closed[v] = closed neighborhood mask of v.
	closed := make([]uint64, n)
	for v := 0; v < n; v++ {
		m := uint64(1) << uint(v)
		for _, w := range g.Neighbors(v) {
			m |= 1 << uint(w)
		}
		closed[v] = m
	}
	full := uint64(1)<<uint(n) - 1
	best := n
	var rec func(covered uint64, size int)
	rec = func(covered uint64, size int) {
		if size >= best {
			return
		}
		if covered == full {
			best = size
			return
		}
		// Pick the lowest uncovered vertex; some member of its closed
		// neighborhood must be in the set.
		var u int
		for u = 0; u < n; u++ {
			if covered&(1<<uint(u)) == 0 {
				break
			}
		}
		cands := closed[u]
		for cands != 0 {
			v := bits.TrailingZeros64(cands)
			cands &= cands - 1
			rec(covered|closed[v], size+1)
		}
	}
	rec(0, 0)
	return best
}
