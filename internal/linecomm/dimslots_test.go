package linecomm_test

import (
	"math/bits"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// TestDimSlotsNumbering checks the closed-form edge slots on the sparse
// hypercubes of the gossip crosschecks (k = 1, 2, 3). For every vertex
// pair: ok iff HasEdge, the slot lies in [0, NumEdgeSlots), both
// argument orders agree, and distinct edges never share a slot. The
// layout is dimension-major: an edge flipping bit d lies in
// [d*order, (d+1)*order), one order-wide window per dimension.
func TestDimSlotsNumbering(t *testing.T) {
	for _, p := range []core.Params{
		core.HypercubeParams(6),
		core.BaseParams(8, 3),
		core.RecParams(9, 5, 2),
	} {
		s, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		order := s.Order()
		sn, ok := linecomm.SlottedFor(s, order, linecomm.DefaultOptions())
		if !ok {
			t.Fatalf("%v: sparse hypercube not routed to the CSR engine", p)
		}
		if want := int(order) * s.N(); sn.NumEdgeSlots() != want {
			t.Fatalf("%v: %d edge slots, want order*n = %d", p, sn.NumEdgeSlots(), want)
		}
		owner := make(map[int][2]uint64)
		for u := range order {
			for v := range order {
				slot, ok := sn.EdgeSlot(u, v)
				if ok != s.HasEdge(u, v) {
					t.Fatalf("%v: EdgeSlot(%d,%d) ok=%v, HasEdge=%v", p, u, v, ok, !ok)
				}
				if !ok {
					continue
				}
				if slot < 0 || slot >= sn.NumEdgeSlots() {
					t.Fatalf("%v: EdgeSlot(%d,%d) = %d outside [0,%d)", p, u, v, slot, sn.NumEdgeSlots())
				}
				d := bits.TrailingZeros64(u ^ v)
				if lo := d * int(order); slot < lo || slot >= lo+int(order) {
					t.Fatalf("%v: EdgeSlot(%d,%d) = %d outside dimension %d's window [%d,%d)",
						p, u, v, slot, d, lo, lo+int(order))
				}
				if back, ok := sn.EdgeSlot(v, u); !ok || back != slot {
					t.Fatalf("%v: EdgeSlot(%d,%d) = %d but EdgeSlot(%d,%d) = %d,%v", p, u, v, slot, v, u, back, ok)
				}
				e := [2]uint64{min(u, v), max(u, v)}
				if prev, seen := owner[slot]; seen && prev != e {
					t.Fatalf("%v: edges %v and %v share slot %d", p, prev, e, slot)
				}
				owner[slot] = e
			}
		}
		if uint64(len(owner)) != s.NumEdges() {
			t.Fatalf("%v: %d slotted edges, want %d", p, len(owner), s.NumEdges())
		}
	}
}
