package graph

// Edge-slot numbering: an injection from the undirected edges of the
// graph into [0, 2·NumEdges), read straight off the CSR arrays. The
// edge {u, v} takes the adjacency position of its other endpoint in the
// list of its chosen endpoint c — the one with the shorter neighbor
// list, the lower id on a tie:
//
//	slot(u, v) = off[c] + index of the other endpoint in adj[c]
//
// Every adjacency position names one directed edge, so distinct edges
// get distinct slots; the other direction's position is a hole. The
// choice of c depends only on the edge set, so the slot is the same
// from either endpoint and under any insertion order.
//
// The numbering is what lets the streaming validator index per-round
// edge-disjointness state for an arbitrary graph in flat arrays (one
// counter per slot) instead of hash maps — the same trick the
// dimensioned fast path plays with dim*order + vertex slots, holes and all,
// without needing the one-bit-per-edge hypercube structure.

// NumEdgeSlots returns the size of the edge-slot universe: the length
// of the adjacency array, 2·NumEdges. Half of it is holes.
func (g *Graph) NumEdgeSlots() int { return len(g.adj) }

// EdgeSlot returns the slot id of the edge {u, v}, in either endpoint
// order. ok is false exactly when {u, v} is not an edge: self-loops,
// out-of-range vertices and non-edges have no slot. This sits on the
// CSR engine's per-hop path: the search scans the shorter neighbor list
// (on skewed graphs — k-trees, stars — a short scan at the leaf end
// instead of a binary search of a hub's thousands of neighbors), and
// the position it lands on is the slot, so a hop reads one adjacency
// line and nothing else.
func (g *Graph) EdgeSlot(u, v int) (int, bool) {
	if u < 0 || v < 0 || u >= g.n || v >= g.n || u == v {
		return 0, false
	}
	if du, dv := g.off[u+1]-g.off[u], g.off[v+1]-g.off[v]; du > dv || du == dv && u > v {
		u, v = v, u
	}
	i := searchInt32(g.adj[g.off[u]:g.off[u+1]], int32(v))
	if i < 0 {
		return 0, false
	}
	return int(g.off[u]) + i, true
}
