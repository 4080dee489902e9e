package linecomm_test

import (
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// Boundary behaviour of the serial simulation cap: at exactly
// MaxGossipSimulateOrder the validator must still simulate; one dimension
// up it must refuse with the dedicated SimulationCapExceeded kind (not
// the misleading VertexOutOfRange it used to report).

func TestValidateAtSimulationCapBoundary(t *testing.T) {
	s, err := core.NewBase(14, 3) // order 2^14 == MaxGossipSimulateOrder
	if err != nil {
		t.Fatal(err)
	}
	if s.Order() != linecomm.MaxGossipSimulateOrder {
		t.Fatalf("test premise broken: order %d != cap %d", s.Order(), linecomm.MaxGossipSimulateOrder)
	}
	res := linecomm.ValidateGossip(s, 2, &linecomm.Schedule{})
	if !res.Valid() || !res.Simulated {
		t.Fatalf("order == cap must simulate: %+v", res)
	}
	if res.Complete || res.MinKnown != 1 {
		t.Fatalf("empty schedule at cap: %+v", res)
	}

	full := linecomm.FromBroadcast(s.BroadcastSchedule(0))
	res = linecomm.ValidateGossip(s, 2, full)
	if err := res.Err(); err != nil {
		t.Fatalf("gather-scatter at cap: %v", err)
	}
	if !res.Complete || !res.Simulated || res.MinKnown != int(s.Order()) {
		t.Fatalf("gather-scatter at cap incomplete: %+v", res)
	}
}

func TestValidateJustAboveSimulationCap(t *testing.T) {
	s, err := core.NewBase(15, 3) // order 2^15, one dimension above the cap
	if err != nil {
		t.Fatal(err)
	}
	sched := &linecomm.Schedule{Rounds: []linecomm.Round{{{Path: []uint64{0, 1}}}}}
	res := linecomm.ValidateGossip(s, 2, sched)
	if res.Valid() {
		t.Fatal("expected cap violation for 2^15 vertices")
	}
	v := res.Violations[0]
	if v.Kind != linecomm.SimulationCapExceeded {
		t.Fatalf("cap reported as %s, want %s", v.Kind, linecomm.SimulationCapExceeded)
	}
	if v.Round != -1 || v.Call != -1 {
		t.Fatalf("cap violation mislocated: %+v", v)
	}
	if res.Simulated || res.Complete {
		t.Fatalf("over-cap result claims simulation: %+v", res)
	}
	if res.Rounds != 1 {
		t.Fatalf("over-cap result must still report declared rounds: %+v", res)
	}

	// The streamed validator picks up exactly where the serial cap ends:
	// the same 2^15 instance is decided exactly there.
	sres := linecomm.ValidateGossipStream(s, 2, 0, s.ScheduleGossipRounds(0))
	if err := sres.Err(); err != nil {
		t.Fatalf("streamed 2^15 gossip: %v", err)
	}
	if !sres.Complete || !sres.Simulated || sres.MinKnown != int(s.Order()) {
		t.Fatalf("streamed 2^15 gossip incomplete: %+v", sres)
	}
}

// TestValidateAllocations pins the serial validator's allocation shape:
// per-round maps are reused and exchanges run on a scratch-free union, so
// doubling the schedule length must not add per-call or per-round
// allocations (the token matrix — O(order) allocations — dominates).
func TestValidateAllocations(t *testing.T) {
	s, err := core.NewBase(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := linecomm.FromBroadcast(s.BroadcastSchedule(0))
	doubled := &linecomm.Schedule{Rounds: append(append([]linecomm.Round{}, base.Rounds...), base.Rounds...)}

	allocs := testing.AllocsPerRun(5, func() {
		if res := linecomm.ValidateGossip(s, 2, base); !res.Complete {
			t.Fatal("base schedule incomplete")
		}
	})
	allocsDoubled := testing.AllocsPerRun(5, func() {
		if res := linecomm.ValidateGossip(s, 2, doubled); !res.Complete {
			t.Fatal("doubled schedule incomplete")
		}
	})

	order := float64(s.Order())
	// Token matrix: two allocations per vertex (set header + words), plus
	// a constant number of maps and slices.
	if limit := 2*order + 64; allocs > limit {
		t.Fatalf("Validate allocated %.0f times (limit %.0f)", allocs, limit)
	}
	// Twice the rounds and calls must cost no more than slack: the
	// per-round state is cleared, not reallocated.
	if allocsDoubled > allocs+16 {
		t.Fatalf("doubling the schedule raised allocations %.0f -> %.0f", allocs, allocsDoubled)
	}
}
