package linecomm_test

import (
	"reflect"
	"testing"

	"sparsehypercube/internal/broadcast"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
	"sparsehypercube/internal/treecast"
)

func TestHypercubeExchangeOptimal(t *testing.T) {
	for n := 1; n <= 10; n++ {
		sched, err := linecomm.HypercubeExchange(n)
		if err != nil {
			t.Fatal(err)
		}
		net := linecomm.GraphNetwork{G: topo.Hypercube(n)}
		res := linecomm.ValidateGossip(net, 1, sched)
		if err := res.Err(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Complete {
			t.Fatalf("n=%d: incomplete, min known %d", n, res.MinKnown)
		}
		if !res.MinimumTime {
			t.Fatalf("n=%d: %d rounds, want %d", n, res.Rounds, linecomm.GossipMinimumRounds(1<<uint(n)))
		}
	}
	if _, err := linecomm.HypercubeExchange(0); err == nil {
		t.Error("expected range error")
	}
}

// Gather-scatter gossip on sparse hypercubes: complete in exactly 2n
// rounds with calls of length <= k — the factor-2 upper bound for the
// paper's open problem.
func TestGatherScatterOnSparseHypercubes(t *testing.T) {
	params := []core.Params{
		core.BaseParams(6, 2),
		core.BaseParams(9, 3),
		core.RecParams(10, 5, 2),
		{K: 4, Dims: []int{2, 4, 6, 11}},
	}
	for _, p := range params {
		s, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range []uint64{0, s.Order() - 1, s.Order() / 3} {
			sched := linecomm.FromBroadcast(s.BroadcastSchedule(root))
			res := linecomm.ValidateGossip(s, p.K, sched)
			if err := res.Err(); err != nil {
				t.Fatalf("%v root=%d: %v", p, root, err)
			}
			if !res.Complete {
				t.Fatalf("%v root=%d: incomplete (min known %d of %d)", p, root, res.MinKnown, s.Order())
			}
			if res.Rounds != 2*s.N() {
				t.Fatalf("%v: %d rounds, want %d", p, res.Rounds, 2*s.N())
			}
		}
	}
}

// FromBroadcast lifts the Theorem-1 tri-tree broadcast into gossip on a
// degree-3 graph: all-to-all in 2*ceil(log2 N) rounds with calls <= 2h.
func TestFromBroadcastTriTree(t *testing.T) {
	for h := 2; h <= 5; h++ {
		g := topo.TriTree(h)
		net := linecomm.GraphNetwork{G: g}
		for _, src := range []int{0, 1, g.NumVertices() - 1} {
			bc, err := broadcast.TriTreeSchedule(h, src)
			if err != nil {
				t.Fatal(err)
			}
			gsched := linecomm.FromBroadcast(bc)
			res := linecomm.ValidateGossip(net, 2*h, gsched)
			if err := res.Err(); err != nil {
				t.Fatalf("h=%d src=%d: %v", h, src, err)
			}
			if !res.Complete {
				t.Fatalf("h=%d src=%d: incomplete (min known %d)", h, src, res.MinKnown)
			}
			want := 2 * broadcast.TriTreeMinimumRounds(h)
			if res.Rounds != want {
				t.Fatalf("h=%d: %d rounds, want %d", h, res.Rounds, want)
			}
		}
	}
}

// FromBroadcast also lifts the generic tree planner: gossip on a path.
func TestFromBroadcastTreePlanner(t *testing.T) {
	g := topo.Path(16)
	p, err := treecast.New(g)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := p.Schedule(5)
	if err != nil {
		t.Fatal(err)
	}
	gsched := linecomm.FromBroadcast(bc)
	res := linecomm.ValidateGossip(linecomm.GraphNetwork{G: g}, 15, gsched)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Rounds != 8 {
		t.Fatalf("path gossip: complete=%v rounds=%d", res.Complete, res.Rounds)
	}
}

// The gossip lower bound: token spread at most doubles per round, so the
// gather-scatter scheme is within a factor 2 of any scheme.
func TestGossipMinimumRounds(t *testing.T) {
	cases := map[uint64]int{2: 1, 4: 2, 16: 4, 22: 5, 1 << 10: 10}
	for order, want := range cases {
		if got := linecomm.GossipMinimumRounds(order); got != want {
			t.Errorf("linecomm.GossipMinimumRounds(%d) = %d, want %d", order, got, want)
		}
	}
}

func TestValidateCatchesBusyVertex(t *testing.T) {
	// On C_4: vertex 1 in two exchanges the same round.
	net := linecomm.GraphNetwork{G: topo.Cycle(4)}
	s := &linecomm.Schedule{Rounds: []linecomm.Round{
		{{Path: []uint64{0, 1}}, {Path: []uint64{1, 2}}},
	}}
	res := linecomm.ValidateGossip(net, 1, s)
	if res.Valid() {
		t.Fatal("busy vertex not flagged")
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == linecomm.CallerDuplicate {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected busy-vertex violation, got %v", res.Violations)
	}
}

func TestValidateCatchesEdgeReuse(t *testing.T) {
	net := linecomm.GraphNetwork{G: topo.Cycle(4)}
	s := &linecomm.Schedule{Rounds: []linecomm.Round{
		{{Path: []uint64{0, 1, 2}}, {Path: []uint64{3, 0}}},
		{{Path: []uint64{0, 3, 2}}, {Path: []uint64{1, 0}}}, // wait: vertex 0 busy twice? no: round 2 has calls 0-3-2 and 1-0: 0 is endpoint of first and receiver of second
	}}
	res := linecomm.ValidateGossip(net, 2, s)
	if res.Valid() {
		t.Fatal("expected violations")
	}
}

func TestValidateCatchesPathProblems(t *testing.T) {
	net := linecomm.GraphNetwork{G: topo.Cycle(4)}
	for _, bad := range []linecomm.Round{
		{{Path: []uint64{0}}},          // too short
		{{Path: []uint64{0, 2}}},       // non-edge
		{{Path: []uint64{0, 1, 0}}},    // repeated vertex
		{{Path: []uint64{0, 9}}},       // out of range
		{{Path: []uint64{0, 1, 2, 3}}}, // longer than k = 2
	} {
		res := linecomm.ValidateGossip(net, 2, &linecomm.Schedule{Rounds: []linecomm.Round{bad}})
		if res.Valid() {
			t.Fatalf("schedule %v should be invalid", bad)
		}
	}
}

func TestValidateTokenSemantics(t *testing.T) {
	// P_3: exchange (0,1), then (1,2): vertex 2 ends up knowing all three
	// tokens; vertex 0 misses token 2 (no second exchange for it).
	net := linecomm.GraphNetwork{G: topo.Path(3)}
	s := &linecomm.Schedule{Rounds: []linecomm.Round{
		{{Path: []uint64{0, 1}}},
		{{Path: []uint64{1, 2}}},
	}}
	res := linecomm.ValidateGossip(net, 1, s)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("vertex 0 cannot know token 2")
	}
	if res.MinKnown != 2 {
		t.Fatalf("min known = %d, want 2 (vertex 0 knows {0,1})", res.MinKnown)
	}
	// One more exchange completes it.
	s.Rounds = append(s.Rounds, linecomm.Round{{Path: []uint64{0, 1}}})
	res = linecomm.ValidateGossip(net, 1, s)
	if !res.Complete {
		t.Fatal("gossip should now be complete")
	}
}

func TestValidateSimulationCap(t *testing.T) {
	s, err := core.NewBase(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := linecomm.ValidateGossip(s, 2, &linecomm.Schedule{})
	if res.Valid() {
		t.Fatal("expected cap violation for 2^15 vertices")
	}
}

// Synchronicity: exchanges in the same round use round-start knowledge
// only — a chain (0,1),(2,3) then (1,2) needs the later round to move
// token 0 to vertex 2; packing both pairs in one round must not leak.
func TestValidateSynchronousRounds(t *testing.T) {
	net := linecomm.GraphNetwork{G: topo.Path(4)}
	s := &linecomm.Schedule{Rounds: []linecomm.Round{
		{{Path: []uint64{0, 1}}, {Path: []uint64{2, 3}}},
	}}
	res := linecomm.ValidateGossip(net, 1, s)
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// After one round: 0 knows {0,1}, 2 knows {2,3} — token 0 must not
	// have reached vertex 2.
	if res.MinKnown != 2 || res.Complete {
		t.Fatalf("synchronous semantics broken: %+v", res)
	}
}

// TestStreamGatherScatterMatchesMaterialised pins the streamed rounds
// against FromBroadcast's materialised schedule, value for value.
func TestStreamGatherScatterMatchesMaterialised(t *testing.T) {
	s, err := core.NewBase(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := linecomm.FromBroadcast(s.BroadcastSchedule(5))
	var got []linecomm.Round
	for r := range s.ScheduleGossipRounds(5) {
		got = append(got, linecomm.CloneRound(r))
	}
	if len(got) != len(want.Rounds) {
		t.Fatalf("streamed %d rounds, want %d", len(got), len(want.Rounds))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want.Rounds[i]) {
			t.Fatalf("round %d diverged:\n%v\n%v", i, got[i], want.Rounds[i])
		}
	}
}
