package graph

import (
	"math/rand"
	"testing"
)

// Floyd–Warshall oracle for the BFS-based algorithms in algo.go: an
// O(n^3) all-pairs distance matrix over graphs of at most 64 vertices,
// computed with none of the code under test.
func floydWarshall(g *Graph) [][]int {
	n := g.NumVertices()
	const inf = 1 << 20
	d := make([][]int, n)
	for i := range d {
		d[i] = make([]int, n)
		for j := range d[i] {
			if i == j {
				d[i][j] = 0
			} else {
				d[i][j] = inf
			}
		}
	}
	g.Edges(func(u, v int) {
		d[u][v] = 1
		d[v][u] = 1
	})
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	for i := range d {
		for j := range d[i] {
			if d[i][j] >= inf {
				d[i][j] = -1 // unreachable, matching BFS's convention
			}
		}
	}
	return d
}

// TestAlgoAgainstFloydWarshall crosschecks BFS, Distance, ShortestPath,
// Eccentricity, Diameter, IsConnected and Components against the
// all-pairs oracle on sparse, dense and disconnected random graphs.
func TestAlgoAgainstFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(63) + 2
		// Sweep density: seed mod 3 picks sparse (likely disconnected),
		// medium, and dense.
		m := []int{n / 2, 2 * n, n * n / 4}[seed%3]
		g := randomGraph(seed, n, m)
		d := floydWarshall(g)

		for u := 0; u < n; u++ {
			dist := BFS(g, u)
			for v := 0; v < n; v++ {
				if int(dist[v]) != d[u][v] {
					t.Fatalf("seed %d: BFS(%d)[%d] = %d, oracle %d", seed, u, v, dist[v], d[u][v])
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got := Distance(g, u, v); got != d[u][v] {
				t.Fatalf("seed %d: Distance(%d,%d) = %d, oracle %d", seed, u, v, got, d[u][v])
			}
			p := ShortestPath(g, u, v)
			if d[u][v] < 0 {
				if p != nil {
					t.Fatalf("seed %d: path %v between disconnected %d,%d", seed, p, u, v)
				}
				continue
			}
			if len(p) != d[u][v]+1 || p[0] != u || p[len(p)-1] != v {
				t.Fatalf("seed %d: ShortestPath(%d,%d) = %v, oracle length %d", seed, u, v, p, d[u][v])
			}
			for i := 1; i < len(p); i++ {
				if !g.HasEdge(p[i-1], p[i]) {
					t.Fatalf("seed %d: path %v uses non-edge {%d,%d}", seed, p, p[i-1], p[i])
				}
			}
		}

		connected := true
		diam := 0
		for u := 0; u < n; u++ {
			ecc := 0
			for v := 0; v < n; v++ {
				if d[u][v] < 0 {
					connected = false
					ecc = -1
					break
				}
				if d[u][v] > ecc {
					ecc = d[u][v]
				}
			}
			if got := Eccentricity(g, u); got != ecc {
				t.Fatalf("seed %d: Eccentricity(%d) = %d, oracle %d", seed, u, got, ecc)
			}
			if ecc > diam {
				diam = ecc
			}
		}
		if !connected {
			diam = -1
		}
		if got := Diameter(g); got != diam {
			t.Fatalf("seed %d: Diameter = %d, oracle %d", seed, got, diam)
		}
		if got := IsConnected(g); got != connected {
			t.Fatalf("seed %d: IsConnected = %v, oracle %v", seed, got, connected)
		}

		comp, k := Components(g)
		// Same component iff finite oracle distance; ids dense in [0, k).
		maxID := int32(-1)
		for u := 0; u < n; u++ {
			if comp[u] > maxID {
				maxID = comp[u]
			}
			for v := 0; v < n; v++ {
				same := comp[u] == comp[v]
				if same != (d[u][v] >= 0) {
					t.Fatalf("seed %d: components disagree with oracle at (%d,%d)", seed, u, v)
				}
			}
		}
		if int(maxID)+1 != k {
			t.Fatalf("seed %d: %d components but max id %d", seed, k, maxID)
		}
		if (k == 1) != connected {
			t.Fatalf("seed %d: k=%d vs connected=%v", seed, k, connected)
		}
	}
}

// Distance returns dist(u, v), or -1 if disconnected.
func Distance(g *Graph, u, v int) int {
	if u == v {
		return 0
	}
	return int(BFS(g, u)[v])
}

// Components returns a component id per vertex (ids are 0-based, assigned
// in order of discovery) and the number of components.
func Components(g *Graph) ([]int32, int) {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	id := int32(0)
	var queue []int32
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = id
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(int(v)) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		id++
	}
	return comp, int(id)
}
