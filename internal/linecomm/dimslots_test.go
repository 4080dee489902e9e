package linecomm_test

import (
	"math/bits"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// TestDimSlotsNumbering checks the closed-form edge slots on the sparse
// hypercubes of the gossip crosschecks (k = 1, 2, 3) and on NewAuto
// (2,8) and (3,10). For every vertex pair: ok iff HasEdge, and then the
// slot is exactly d*order + min(u, v), d the bit u and v differ in —
// dimension-major, one order-wide window per dimension — the same in
// both argument orders, and distinct edges never share a slot.
func TestDimSlotsNumbering(t *testing.T) {
	var cubes []*core.SparseHypercube
	for _, p := range []core.Params{
		core.HypercubeParams(6),
		core.BaseParams(8, 3),
		core.RecParams(9, 5, 2),
	} {
		s, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		cubes = append(cubes, s)
	}
	for _, kn := range [][2]int{{2, 8}, {3, 10}} {
		s, err := core.NewAuto(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		cubes = append(cubes, s)
	}
	for _, s := range cubes {
		p := s.Params()
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
				if want := bits.TrailingZeros64(u^v)*int(order) + int(min(u, v)); slot != want {
					t.Fatalf("%v: EdgeSlot(%d,%d) = %d, want the closed form's %d", p, u, v, slot, want)
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
		// One endpoint past the order differs in bit n: no slot, and no
		// query of dimension n+1.
		if _, ok := sn.EdgeSlot(1, order|1); ok {
			t.Fatalf("%v: EdgeSlot(1, %d) accepted an out-of-range vertex", p, order|1)
		}
		if uint64(len(owner)) != s.NumEdges() {
			t.Fatalf("%v: %d slotted edges, want %d", p, len(owner), s.NumEdges())
		}
	}
}
