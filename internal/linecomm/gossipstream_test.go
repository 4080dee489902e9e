package linecomm

import (
	"reflect"
	"testing"

	"sparsehypercube/internal/topo"
)

// gatherScatterQn lifts binomialSchedule(n) into the 2n-round
// gather-scatter gossip (the reversed broadcast followed by the broadcast
// itself).
func gatherScatterQn(n int) *Schedule { return FromBroadcast(binomialSchedule(n)) }

// TestGossipStreamShardWidths forces the sharded simulation through its
// extreme shard layouts — one wide shard, word-wide shards (the scalar
// fast path), and odd widths in between — and requires from each the
// GossipResult the hub certificate gives.
func TestGossipStreamShardWidths(t *testing.T) {
	const n = 7
	sched := gatherScatterQn(n)
	net := GraphNetwork{G: topo.Hypercube(n)}
	sims := CountSimulations(t)

	want := ValidateGossipStream(net, 1, sched.Source, sched.Stream())
	if !want.Complete || !want.Simulated || want.MinKnown != 1<<n || *sims != 0 {
		t.Fatalf("base gather-scatter misjudged (%d simulations): %+v", *sims, want)
	}

	defer func(b int) { gossipSimBudgetBytes = b }(gossipSimBudgetBytes)
	// Budgets chosen to yield shardWords of 1 (scalar path), 2, and a
	// handful, across any worker count.
	budgets := []int{1, 1 << 10, 1 << 14, 1 << 17}
	for _, budget := range budgets {
		gossipSimBudgetBytes = budget
		got := ValidateGossipStream(net, 1, NoHub, sched.Stream())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("budget %d diverged:\nwant %+v\ngot  %+v", budget, want, got)
		}
	}
	if *sims != len(budgets) {
		t.Fatalf("%d simulations for %d budgets", *sims, len(budgets))
	}
}

// TestGossipShardWords pins the shard-width arithmetic: never wider
// than the budget allows or than one cache line per row, never below a
// word, and narrow enough at the default budget that every worker gets
// at least one shard whenever there are that many words.
func TestGossipShardWords(t *testing.T) {
	const budget = 512 << 20
	for _, order := range []int{1, 100, 1 << 10, 1 << 14, 1 << 20} {
		for _, totalWords := range []int{1, 2, 3, 7, 8, 9, 64, 256, 1 << 14} {
			for _, workers := range []int{1, 2, 3, 4, 8, 16} {
				w := gossipShardWords(order, totalWords, workers, budget)
				if w < 1 || w > gossipShardMaxWords {
					t.Fatalf("order %d words %d workers %d: width %d outside [1,%d]",
						order, totalWords, workers, w, gossipShardMaxWords)
				}
				if budgetWords := budget / (workers * order * 8); budgetWords >= 1 && w > budgetWords {
					t.Fatalf("order %d words %d workers %d: width %d exceeds the budget's %d",
						order, totalWords, workers, w, budgetWords)
				}
				if shards := (totalWords + w - 1) / w; shards < min(workers, totalWords) {
					t.Fatalf("order %d words %d workers %d: width %d gives %d shards, want >= %d",
						order, totalWords, workers, w, shards, min(workers, totalWords))
				}
			}
		}
	}
	// All-source gossip at n = 14 on two workers: 256 token words split
	// into cache-line shards, 32 of them, instead of one 32 MiB matrix.
	if w := gossipShardWords(1<<14, 256, 2, budget); w != 8 {
		t.Fatalf("n=14 on 2 workers: width %d, want 8", w)
	}
	// A budget too small for even one word per row still yields a word.
	if w := gossipShardWords(1<<14, 256, 2, 1); w != 1 {
		t.Fatalf("starved budget: width %d, want 1", w)
	}
}

// TestMultiSourceStreamSemantics: with a restricted source set,
// completion means every vertex learns exactly the listed tokens; the
// same schedule that completes gossip completes any subset, and a
// schedule that never touches a source cannot.
func TestMultiSourceStreamSemantics(t *testing.T) {
	const n = 5
	sched := gatherScatterQn(n)
	net := GraphNetwork{G: topo.Hypercube(n)}

	res := ValidateMultiSourceStream(net, 1, sched.Source, []uint64{0, 7, 31}, sched.Stream())
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.MinKnown != 3 || !res.Simulated {
		t.Fatalf("3-source dissemination over full gossip: %+v", res)
	}

	// An empty (non-nil) source list means all-source, same as nil.
	all := ValidateGossipStream(net, 1, sched.Source, sched.Stream())
	if got := ValidateMultiSourceStream(net, 1, sched.Source, []uint64{}, sched.Stream()); !reflect.DeepEqual(all, got) {
		t.Fatalf("empty source list diverges from nil:\nnil:   %+v\nempty: %+v", all, got)
	}

	// An empty schedule leaves every non-source vertex with zero tokens.
	res = ValidateMultiSourceStream(net, 1, 4, []uint64{4}, (&Schedule{}).Stream())
	if res.Complete || res.MinKnown != 0 || !res.Simulated {
		t.Fatalf("empty schedule with one source: %+v", res)
	}

	// A single exchange spreads source 4's token to exactly one peer.
	one := &Schedule{Rounds: []Round{{{Path: []uint64{4, 5}}}}}
	res = ValidateMultiSourceStream(net, 1, 4, []uint64{4}, one.Stream())
	if res.Complete || res.MinKnown != 0 {
		t.Fatalf("one exchange cannot complete: %+v", res)
	}
}

// TestMultiSourceStreamRejectsBadSources: out-of-range and repeated
// sources are violations and disable the simulation (structural checks
// still run).
func TestMultiSourceStreamRejectsBadSources(t *testing.T) {
	const n = 4
	net := GraphNetwork{G: topo.Hypercube(n)}
	sched := gatherScatterQn(n)

	res := ValidateMultiSourceStream(net, 1, sched.Source, []uint64{3, 1 << n}, sched.Stream())
	if res.Valid() || res.Simulated {
		t.Fatalf("out-of-range source accepted: %+v", res)
	}
	if res.Violations[0].Kind != VertexOutOfRange {
		t.Fatalf("out-of-range source reported as %s", res.Violations[0].Kind)
	}
	if res.Rounds != 2*n {
		t.Fatal("structural pass skipped on bad sources")
	}

	res = ValidateMultiSourceStream(net, 1, sched.Source, []uint64{3, 5, 3}, sched.Stream())
	if res.Valid() || res.Simulated {
		t.Fatalf("repeated source accepted: %+v", res)
	}
	if res.Violations[0].Kind != CallerDuplicate {
		t.Fatalf("repeated source reported as %s", res.Violations[0].Kind)
	}
}

// hugeNet pretends to be a network too large to simulate; it has no
// edges, which is fine for an empty round stream, and so an empty slot
// numbering: the streamed validators refuse a network without one.
type hugeNet struct{ order uint64 }

func (h hugeNet) Order() uint64                  { return h.order }
func (hugeNet) HasEdge(u, v uint64) bool         { return false }
func (hugeNet) NumEdgeSlots() int                { return 0 }
func (hugeNet) EdgeSlot(u, v uint64) (int, bool) { return 0, false }

// TestGossipStreamCaps: both streamed caps — the vertex bound and the
// cell bound — report SimulationCapExceeded and keep the structural pass
// alive; a narrow source set rescues the cell bound but not the vertex
// bound.
func TestGossipStreamCaps(t *testing.T) {
	// Cell cap: order fits, order x order does not (2^42 > 2^40).
	cells := hugeNet{order: 1 << 21}
	res := ValidateGossipStream(cells, 1, 0, (&Schedule{}).Stream())
	if res.Valid() || res.Simulated {
		t.Fatalf("cell-cap instance simulated: %+v", res)
	}
	if res.Violations[0].Kind != SimulationCapExceeded {
		t.Fatalf("cell cap reported as %s", res.Violations[0].Kind)
	}

	// The same order with a handful of sources is back under the cap.
	res = ValidateMultiSourceStream(cells, 1, 0, []uint64{0, 1}, (&Schedule{}).Stream())
	if !res.Valid() || !res.Simulated || res.Complete {
		t.Fatalf("narrow sources at large order: %+v", res)
	}

	// Vertex cap: order alone is too large, sources cannot rescue it.
	verts := hugeNet{order: MaxGossipSimulateVertices + 1}
	res = ValidateMultiSourceStream(verts, 1, 0, []uint64{0, 1}, (&Schedule{}).Stream())
	if res.Valid() || res.Simulated {
		t.Fatalf("vertex-cap instance simulated: %+v", res)
	}
	if res.Violations[0].Kind != SimulationCapExceeded {
		t.Fatalf("vertex cap reported as %s", res.Violations[0].Kind)
	}
}
