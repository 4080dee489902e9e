package linecomm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/topo"
)

// Differential suite for the CSR engine: on arbitrary (non-hypercube)
// graphs the same schedule is validated by the serial reference and by
// the streaming CSR engine (bare GraphNetwork), and the Results must
// agree exactly, down to the JSON bytes. The
// workloads are BFS-tree broadcasts (TreeRounds) on random graph
// families, intact and under a general-graph mutation catalogue
// mirroring mutationsForQn, plus unstructured random corruption,
// open-range validation and the gossip validators.

// treeSchedule materialises TreeRounds(g, source).
func treeSchedule(g *graph.Graph, source uint64) *Schedule {
	s := &Schedule{Source: source}
	for r := range TreeRounds(g, source) {
		s.Rounds = append(s.Rounds, CloneRound(r))
	}
	return s
}

// generalFamilies returns the general-graph zoo for one seed: sparse
// Erdős–Rényi (possibly disconnected), random regular, tree plus
// chords, and the star/path degenerate shapes.
func generalFamilies(seed int64) []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", topo.Gnp(40, 0.1, seed)},
		{"regular", topo.RandomRegular(32, 4, seed)},
		{"connected", topo.RandomConnected(48, 24, seed)},
		{"star", topo.Star(33)},
		{"path", topo.Path(32)},
	}
}

// mustAgreeGeneral validates s on g serially and on the streaming CSR
// engine and requires exact agreement: DeepEqual Results and
// byte-identical JSON.
func mustAgreeGeneral(t *testing.T, g *graph.Graph, k int, s *Schedule, opts Options) *Result {
	t.Helper()
	net := GraphNetwork{G: g}
	serial := ValidateOpts(net, k, s, opts)
	csrRes := ValidateStreamOpts(net, k, s.Source, s.Stream(), opts)
	if !reflect.DeepEqual(serial, csrRes) {
		t.Fatalf("csr stream diverges from serial:\nserial: %+v\ncsr:    %+v", serial, csrRes)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	cj, err := json.Marshal(csrRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, cj) {
		t.Fatalf("serial and csr reports differ as JSON:\nserial: %s\ncsr:    %s", sj, cj)
	}
	return csrRes
}

// TestCSRDifferentialIntact: intact BFS-tree broadcasts across the
// family zoo, k in {1,2,3}, several seeds. On connected graphs the
// schedule must be accepted as complete.
func TestCSRDifferentialIntact(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for _, fam := range generalFamilies(seed) {
			s := treeSchedule(fam.g, 0)
			for k := 1; k <= 3; k++ {
				res := mustAgreeGeneral(t, fam.g, k, s, DefaultOptions())
				if !res.Valid() {
					t.Fatalf("%s seed %d k=%d: tree schedule rejected: %v", fam.name, seed, k, res.Err())
				}
				if graph.IsConnected(fam.g) && !res.Complete {
					t.Fatalf("%s seed %d k=%d: tree schedule incomplete on connected graph", fam.name, seed, k)
				}
			}
		}
	}
}

// generalMutations is the mutation catalogue for a BFS-tree schedule on
// an arbitrary graph — the general-graph mirror of mutationsForQn. Each
// mutation breaks a model rule; mut returns false when the shape of the
// schedule or graph makes it inapplicable.
func generalMutations(g *graph.Graph) []scheduleMutation {
	order := uint64(g.NumVertices())
	neighbor := func(v uint64) (uint64, bool) {
		ns := g.Neighbors(int(v))
		if len(ns) == 0 {
			return 0, false
		}
		return uint64(ns[0]), true
	}
	nonNeighbor := func(v uint64) (uint64, bool) {
		for w := uint64(0); w < order; w++ {
			if w != v && !g.HasEdge(int(v), int(w)) {
				return w, true
			}
		}
		return 0, false
	}
	return []scheduleMutation{
		{"retarget-receiver-to-duplicate", func(rng *rand.Rand, s *Schedule) bool {
			for _, r := range s.Rounds {
				if len(r) >= 2 {
					r[1].Path[len(r[1].Path)-1] = r[0].To()
					return true
				}
			}
			return false
		}},
		{"uninformed-caller", func(rng *rand.Rand, s *Schedule) bool {
			// The receiver of the very last call is informed only at the
			// end; making it a caller in round 0 is illegal whenever the
			// schedule has more than one round.
			if len(s.Rounds) < 2 {
				return false
			}
			lastRound := s.Rounds[len(s.Rounds)-1]
			v := lastRound[len(lastRound)-1].To()
			w, ok := neighbor(v)
			if !ok {
				return false
			}
			s.Rounds[0] = append(s.Rounds[0], Call{Path: []uint64{v, w}})
			return true
		}},
		{"duplicate-caller", func(rng *rand.Rand, s *Schedule) bool {
			u := s.Rounds[0][0].From()
			w, ok := neighbor(u)
			if !ok {
				return false
			}
			s.Rounds[0] = append(s.Rounds[0], Call{Path: []uint64{u, w}})
			return true
		}},
		{"non-edge-hop", func(rng *rand.Rand, s *Schedule) bool {
			c := &s.Rounds[0][0]
			w, ok := nonNeighbor(c.From())
			if !ok {
				return false
			}
			c.Path[len(c.Path)-1] = w
			return true
		}},
		{"repeated-vertex", func(rng *rand.Rand, s *Schedule) bool {
			c := &s.Rounds[0][0]
			n := len(c.Path)
			c.Path = append(c.Path, c.Path[n-2], c.Path[n-1])
			return true
		}},
		{"overlong-call", func(rng *rand.Rand, s *Schedule) bool {
			// Extend a call's path by a neighbor walk well past any k the
			// tests use; revisits along the walk only add violations.
			c := &s.Rounds[0][0]
			prev, cur := c.From(), c.To()
			for hop := 0; hop < 4; hop++ {
				next := uint64(0)
				found := false
				for _, w := range g.Neighbors(int(cur)) {
					if uint64(w) != prev {
						next, found = uint64(w), true
						break
					}
				}
				if !found {
					next, found = prev, prev != cur
				}
				if !found {
					return false
				}
				c.Path = append(c.Path, next)
				prev, cur = cur, next
			}
			return true
		}},
		{"shared-edge", func(rng *rand.Rand, s *Schedule) bool {
			for _, r := range s.Rounds {
				if len(r) >= 2 {
					// Route call 1 over call 0's edge (the prefix hop may
					// itself be a non-edge — also a violation).
					r[1].Path = []uint64{r[1].From(), r[0].From(), r[0].To()}
					return true
				}
			}
			return false
		}},
		{"out-of-range-vertex", func(rng *rand.Rand, s *Schedule) bool {
			c := &s.Rounds[0][0]
			c.Path[len(c.Path)-1] = order
			return true
		}},
		{"empty-path", func(rng *rand.Rand, s *Schedule) bool {
			c := &s.Rounds[0][0]
			c.Path = c.Path[:1]
			return true
		}},
		{"re-inform", func(rng *rand.Rand, s *Schedule) bool {
			// The receiver of round 0's first call is informed from round 1
			// on; calling back to the (always informed) source re-informs.
			if len(s.Rounds) < 2 {
				return false
			}
			child := s.Rounds[0][0].To()
			src := s.Rounds[0][0].From()
			last := len(s.Rounds) - 1
			s.Rounds[last] = append(s.Rounds[last], Call{Path: []uint64{child, src}})
			return true
		}},
	}
}

// TestCSRDifferentialMutations runs the general mutation catalogue over
// the zoo: every applicable mutation must be rejected, with the engine
// in exact agreement with the serial Report.
func TestCSRDifferentialMutations(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		for _, fam := range generalFamilies(seed) {
			base := treeSchedule(fam.g, 0)
			if len(base.Rounds) == 0 {
				t.Fatalf("%s seed %d: empty tree schedule", fam.name, seed)
			}
			rng := rand.New(rand.NewSource(seed))
			applied := 0
			for _, m := range generalMutations(fam.g) {
				s := cloneSchedule(base)
				if !m.mut(rng, s) {
					continue
				}
				applied++
				res := mustAgreeGeneral(t, fam.g, 1, s, DefaultOptions())
				if res.Valid() {
					t.Fatalf("%s seed %d: mutation %q went undetected", fam.name, seed, m.name)
				}
			}
			if applied < 7 {
				t.Fatalf("%s seed %d: only %d mutations applicable", fam.name, seed, applied)
			}
		}
	}
}

// TestCSRDifferentialRandomCorruption goes beyond the curated catalogue
// with unstructured edits, under Definition 1 and under generalised
// capacities.
func TestCSRDifferentialRandomCorruption(t *testing.T) {
	g := topo.RandomConnected(40, 30, 11)
	base := treeSchedule(g, 0)
	order := uint64(g.NumVertices())
	rng := rand.New(rand.NewSource(13))
	optsList := []Options{
		DefaultOptions(),
		{EdgeCapacity: 2, ReceiverCapacity: 2, AllowInformedReceiver: true},
	}
	for trial := 0; trial < 200; trial++ {
		s := cloneSchedule(base)
		for e := rng.Intn(4) + 1; e > 0; e-- {
			ri := rng.Intn(len(s.Rounds))
			if len(s.Rounds[ri]) == 0 {
				continue
			}
			ci := rng.Intn(len(s.Rounds[ri]))
			c := &s.Rounds[ri][ci]
			switch rng.Intn(5) {
			case 0:
				c.Path[rng.Intn(len(c.Path))] = uint64(rng.Intn(int(order) + 3))
			case 1:
				c.Path = append(c.Path, uint64(rng.Intn(int(order))))
			case 2:
				c.Path = c.Path[:rng.Intn(len(c.Path)+1)]
			case 3:
				s.Rounds[ri] = append(s.Rounds[ri], Call{Path: append([]uint64(nil), c.Path...)})
			case 4:
				cj := rng.Intn(len(s.Rounds[ri]))
				if to, ok := last(s.Rounds[ri][cj].Path); ok {
					c.Path[len(c.Path)-1] = to
				}
			}
		}
		k := rng.Intn(3) + 1
		mustAgreeGeneral(t, g, k, s, optsList[trial%len(optsList)])
	}
}

// TestCSROpenRangeGeneral: the open-range pipeline (ValidateStreamOpen
// + MergeOpenRanges) must reproduce the serial Result on general
// networks whenever it accepts, and accept whenever the serial Result
// shows no false boundary assumption — intact and mutated.
func TestCSROpenRangeGeneral(t *testing.T) {
	g := topo.RandomConnected(48, 24, 5)
	base := treeSchedule(g, 0)
	schedules := []*Schedule{base}
	rng := rand.New(rand.NewSource(5))
	for _, m := range generalMutations(g) {
		s := cloneSchedule(base)
		if m.mut(rng, s) {
			schedules = append(schedules, s)
		}
	}
	net := GraphNetwork{G: g}
	t.Run("csr-engine", func(t *testing.T) {
		for _, s := range schedules {
			serial := Validate(net, 1, s)
			for _, workers := range []int{2, 3} {
				checkOpenRanges(t, net, 1, s, evenBounds(len(s.Rounds), workers), DefaultOptions(), serial)
			}
		}
	})
}

// TestCSRGossipDifferential: the streamed gossip and multi-source
// validators must agree with the serial ValidateGossip on general
// graphs, intact and corrupted, with the certificate's hub and without
// one. Multi-source with every vertex listed is gossip by another
// route; with two sources the token axis narrows, so only the
// structural half (every violation) must match.
func TestCSRGossipDifferential(t *testing.T) {
	g := topo.RandomConnected(40, 30, 3)
	base := treeSchedule(g, 0)
	rng := rand.New(rand.NewSource(3))
	schedules := []*Schedule{base}
	for _, m := range generalMutations(g) {
		s := cloneSchedule(base)
		if m.mut(rng, s) {
			schedules = append(schedules, s)
		}
	}
	net := GraphNetwork{G: g}
	all := make([]uint64, g.NumVertices())
	for v := range all {
		all[v] = uint64(v)
	}
	two := []uint64{0, uint64(g.NumVertices() / 2)}
	for si, s := range schedules {
		want := ValidateGossip(net, 2, s)
		for _, hub := range []uint64{s.Source, NoHub} {
			if got := ValidateGossipStream(net, 2, hub, s.Stream()); !reflect.DeepEqual(want, got) {
				t.Fatalf("schedule %d hub %d: gossip diverges:\nserial: %+v\nstream: %+v", si, hub, want, got)
			}
			if got := ValidateMultiSourceStream(net, 2, hub, all, s.Stream()); !reflect.DeepEqual(want, got) {
				t.Fatalf("schedule %d hub %d: all-source multi-source diverges:\nserial: %+v\nstream: %+v", si, hub, want, got)
			}
		}
		ms := ValidateMultiSourceStream(net, 1, s.Source, two, s.Stream())
		if gs := ValidateGossipStream(net, 1, s.Source, s.Stream()); !reflect.DeepEqual(gs.Violations, ms.Violations) {
			t.Fatalf("schedule %d: two-source violations diverge from gossip:\ngossip: %+v\nmulti:  %+v", si, gs.Violations, ms.Violations)
		}
	}
}

// TestTreeRoundsSchedule pins the workload generator itself: on a
// connected graph the BFS-tree broadcast is valid, minimum-length in
// informed count (complete), and every round is yielded with reused
// storage (exercised implicitly by the streaming validation above); on
// a disconnected graph it informs exactly the source component; an
// out-of-range source yields nothing.
func TestTreeRoundsSchedule(t *testing.T) {
	g := topo.RandomConnected(64, 16, 9)
	res := ValidateStream(GraphNetwork{G: g}, 1, 0, TreeRounds(g, 0))
	if !res.Valid() || !res.Complete {
		t.Fatalf("tree broadcast invalid on connected graph: %v", res.Err())
	}

	// Two disjoint components: 0..15 path, 16..31 path.
	b := graph.NewBuilder(32)
	for v := 0; v < 15; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 16; v < 31; v++ {
		b.AddEdge(v, v+1)
	}
	dg := b.Finish()
	res = ValidateStream(GraphNetwork{G: dg}, 1, 0, TreeRounds(dg, 0))
	if !res.Valid() || res.Complete || res.Informed != 16 {
		t.Fatalf("component broadcast: valid=%v complete=%v informed=%d", res.Valid(), res.Complete, res.Informed)
	}

	count := 0
	for range TreeRounds(dg, 99) {
		count++
	}
	if count != 0 {
		t.Fatalf("out-of-range source yielded %d rounds", count)
	}
}

// TestCSRStateAllocations pins the per-round allocation behaviour of the
// streaming engines: validating a doubled schedule must allocate no
// more than validating it once (plus slack), i.e. rounds are processed
// with cleared-and-reused state, not per-round allocation. The doubled
// half re-informs every receiver, which AllowInformedReceiver makes
// violation-free, so no engine grows its informed set or records
// violations there. The workloads are a BFS-tree broadcast on a general
// graph and the binomial broadcast of Q_12, whose last rounds have
// 2,048 calls or more, on both slot numberings.
func TestCSRStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	g := topo.RandomConnected(512, 256, 1)
	csrNet := GraphNetwork{G: g}
	q12 := engines(12)
	opts := Options{EdgeCapacity: 1, ReceiverCapacity: 1, AllowInformedReceiver: true}
	for _, tc := range []struct {
		name string
		net  Network
		base *Schedule
	}{
		{"csr-engine", csrNet, treeSchedule(g, 0)},
		{"binomial12/csr-engine", q12["csr"], binomialSchedule(12)},
		{"binomial12/dim-engine", q12["dim"], binomialSchedule(12)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doubled := &Schedule{Source: 0, Rounds: append(append([]Round{}, tc.base.Rounds...), tc.base.Rounds...)}
			run := func(s *Schedule) {
				res := ValidateStreamOpts(tc.net, 1, 0, s.Stream(), opts)
				if !res.Valid() || !res.Complete {
					t.Fatalf("schedule rejected: %v (informed %d)", res.Err(), res.Informed)
				}
			}
			allocs := testing.AllocsPerRun(5, func() { run(tc.base) })
			allocsDoubled := testing.AllocsPerRun(5, func() { run(doubled) })
			if allocsDoubled > allocs+16 {
				t.Fatalf("allocations scale with rounds: %v for %d rounds vs %v for %d",
					allocsDoubled, len(doubled.Rounds), allocs, len(tc.base.Rounds))
			}
		})
	}
}

// fakeDim is an edgeless DimensionedNetwork of any claimed size: it
// lets the cap tests probe slottedFor at orders whose engine state
// would be too large to allocate in a test.
type fakeDim struct {
	order uint64
	n     int
}

func (f fakeDim) Order() uint64             { return f.order }
func (fakeDim) HasEdge(u, v uint64) bool    { return false }
func (f fakeDim) N() int                    { return f.n }
func (fakeDim) HasEdgeDim(uint64, int) bool { return false }

var _ DimensionedNetwork = fakeDim{}

// mustRefuse requires every streaming entry point to refuse net before
// consuming a round: one SimulationCapExceeded violation at round -1
// and nothing else, and open ranges that MergeOpenRanges rejects. On a
// network with no numbering at all (numberedNet false) ValidateStream
// runs the serial validator instead, so only the other entry points
// are held to the refusal.
func mustRefuse(t *testing.T, net Network, numberedNet bool) {
	t.Helper()
	consumed := false
	probe := func(yield func(Round) bool) { consumed = true }
	refused := func(entry string, vs []Violation) {
		t.Helper()
		if len(vs) != 1 || vs[0].Kind != SimulationCapExceeded || vs[0].Round != -1 || vs[0].Call != -1 {
			t.Fatalf("%s: want one simulation-cap-exceeded violation at round -1, got %+v", entry, vs)
		}
		if consumed {
			t.Fatalf("%s consumed a round of a refused network", entry)
		}
	}
	if numberedNet {
		res := ValidateStream(net, 1, 0, probe)
		refused("ValidateStream", res.Violations)
		if res.Complete || res.MinimumTime || res.Informed != 0 || len(res.InformedPerRound) != 0 {
			t.Fatalf("ValidateStream judged a refused network: %+v", res)
		}
	}
	parts := []*OpenRange{
		ValidateStreamOpen(net, 1, 0, 0, probe, DefaultOptions()),
		ValidateStreamOpen(net, 1, 0, 2, probe, DefaultOptions()),
	}
	for _, p := range parts {
		refused("ValidateStreamOpen", p.res.Violations)
	}
	if res, ok := MergeOpenRanges(net.Order(), 0, parts); ok {
		t.Fatalf("MergeOpenRanges accepted refused ranges: %+v", res)
	}
	refused("ValidateGossipStream", ValidateGossipStream(net, 1, 0, probe).Violations)
	refused("ValidateMultiSourceStream", ValidateMultiSourceStream(net, 1, 0, []uint64{0, 1}, probe).Violations)
}

// TestStreamRefusesOverCapNetworks: an n = 27 cube's worth of closed-form
// edge slots (order*n past the 2^31-bit cap) and a network with no
// numbering at all are refused by every streaming entry point, before a
// round is consumed.
func TestStreamRefusesOverCapNetworks(t *testing.T) {
	mustRefuse(t, fakeDim{1 << 27, 27}, true)
	mustRefuse(t, plainNet{GraphNetwork{G: topo.Hypercube(4)}}, false)
}

// TestValidateStreamBareNetworkFallsBack: ValidateStream over a network
// with no edge-slot numbering (a GraphNetwork stripped to Order and
// HasEdge) materialises the rounds for the serial validator, whose
// Result must equal the CSR engine's on the same graph: TreeRounds
// broadcasts on 2^12-vertex random 8-regular and 8-tree graphs from two
// sources, intact and under the general mutation catalogue.
func TestValidateStreamBareNetworkFallsBack(t *testing.T) {
	const order = 1 << 12
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"regular8", topo.RandomRegular(order, 8, 1)},
		{"ktree8", topo.RandomKTree(order, 8, 1)},
	} {
		t.Run(fam.name, func(t *testing.T) {
			csrNet := GraphNetwork{G: fam.g}
			bare := plainNet{csrNet}
			for _, src := range []uint64{0, 1234} {
				want := ValidateStream(csrNet, 1, src, TreeRounds(fam.g, src))
				if !want.Valid() || !want.Complete {
					t.Fatalf("source %d: tree broadcast rejected: %v", src, want.Err())
				}
				if got := ValidateStream(bare, 1, src, TreeRounds(fam.g, src)); !reflect.DeepEqual(want, got) {
					t.Fatalf("source %d: bare network diverges from the CSR engine:\ncsr:  %+v\nbare: %+v", src, want, got)
				}
			}
			base := treeSchedule(fam.g, 0)
			rng := rand.New(rand.NewSource(1))
			for _, m := range generalMutations(fam.g) {
				s := cloneSchedule(base)
				if !m.mut(rng, s) {
					continue
				}
				want := ValidateStream(csrNet, 1, s.Source, s.Stream())
				if got := ValidateStream(bare, 1, s.Source, s.Stream()); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: bare network diverges from the CSR engine:\ncsr:  %+v\nbare: %+v", m.name, want, got)
				}
			}
		})
	}
}

// TestSlottedForCaps pins the size caps by storage kind: bit-set
// universes (capacity 1, and all of gossip) stop at maxStreamBits, only
// per-slot counters (generalised capacities) at maxCSRSlots. An n = 22
// cube has order*n = 92M edge slots — past the counter cap — and must
// still reach the CSR engine under Definition 1. A lying width must be
// rejected before its closed-form slots can alias.
func TestSlottedForCaps(t *testing.T) {
	def := DefaultOptions()
	edge2 := Options{EdgeCapacity: 2, ReceiverCapacity: 1}
	both2 := Options{EdgeCapacity: 2, ReceiverCapacity: 2}
	for _, tc := range []struct {
		name string
		net  fakeDim
		opts Options
		want bool
	}{
		{"n22-capacity1", fakeDim{1 << 22, 22}, def, true},
		{"n26-capacity1", fakeDim{1 << 26, 26}, def, true},
		{"n27-capacity1-over-bit-cap", fakeDim{1 << 27, 27}, def, false},
		{"n22-edge-capacity2", fakeDim{1 << 22, 22}, edge2, false},
		{"n20-capacity2-counters", fakeDim{1 << 20, 20}, both2, true},
		{"order-beyond-width", fakeDim{1 << 22, 21}, def, false},
		{"zero-width", fakeDim{1, 0}, def, false},
	} {
		sn, ok := slottedFor(tc.net, tc.net.order, tc.opts)
		if ok != tc.want {
			t.Fatalf("%s: slottedFor accepted=%v, want %v", tc.name, ok, tc.want)
		}
		if ok && uint64(sn.NumEdgeSlots()) != tc.net.order*uint64(tc.net.n) {
			t.Fatalf("%s: %d edge slots, want order*n = %d", tc.name, sn.NumEdgeSlots(), tc.net.order*uint64(tc.net.n))
		}
	}
}

// denseThenSparse is binomialSchedule(n) followed by rounds that reuse
// the slots of its last round, which is dense: more touched edges,
// receivers and callers than its bit sets have words, so endRound
// resets those sets wholesale. A lone re-inform over the dense round's
// first call, the dense round again, and one reversed call follow — any
// bit the wholesale reset left behind (or any slot the per-slot path
// missed after it) shows up as a stale conflict.
func denseThenSparse(n int) *Schedule {
	s := binomialSchedule(n)
	dense := s.Rounds[len(s.Rounds)-1]
	first, second := dense[0], dense[1]
	s.Rounds = append(s.Rounds,
		Round{{Path: []uint64{first.From(), first.To()}}},
		cloneSchedule(&Schedule{Rounds: []Round{dense}}).Rounds[0],
		Round{{Path: []uint64{second.To(), second.From()}}},
	)
	return s
}

// TestCSRDenseRoundReset: after a dense round the engine resets whole
// sets instead of clearing slot by slot; the sparse rounds that follow
// must see no stale conflicts, under capacity 1 (bit sets) and
// generalised capacities (counters), on the graph's own slot numbering
// and on the closed form — each agreeing with the serial validator —
// and the mutation catalogue over the same schedule must be judged
// identically on both.
func TestCSRDenseRoundReset(t *testing.T) {
	const n = 7
	base := denseThenSparse(n)
	g := GraphNetwork{G: topo.Hypercube(n)}
	if dense := len(base.Rounds[n-1]); dense <= (g.NumEdgeSlots()+63)/64 || dense <= (1<<n+63)/64 {
		t.Fatalf("round %d has %d calls: not dense enough to overflow the touched lists", n-1, dense)
	}
	for _, opts := range []Options{
		{EdgeCapacity: 1, ReceiverCapacity: 1, AllowInformedReceiver: true},
		{EdgeCapacity: 2, ReceiverCapacity: 2, AllowInformedReceiver: true},
	} {
		check := func(name string, s *Schedule) *Result {
			t.Helper()
			want := ValidateOpts(g, 1, s, opts)
			for engine, net := range engines(n) {
				if got := ValidateStreamOpts(net, 1, s.Source, s.Stream(), opts); !reflect.DeepEqual(want, got) {
					t.Fatalf("%+v %s %s: diverges from serial:\nserial: %+v\nstream: %+v", opts, name, engine, want, got)
				}
			}
			return want
		}
		if res := check("intact", base); !res.Valid() || !res.Complete {
			t.Fatalf("%+v: dense-then-sparse schedule rejected: %v", opts, res.Err())
		}
		rng := rand.New(rand.NewSource(7))
		for _, m := range mutationsForQn(n) {
			s := cloneSchedule(base)
			if !m.mut(rng, s) {
				continue
			}
			res := check(m.name, s)
			// Capacity 1 catches every mutation but the re-inform, which
			// AllowInformedReceiver permits; capacity 2 admits the
			// shared receiver and edge as well, so only agreement counts.
			if opts.EdgeCapacity == 1 && m.name != "re-inform" && res.Valid() {
				t.Fatalf("%+v: mutation %q went undetected", opts, m.name)
			}
		}
	}
}

// thresholdOrder is the order of the dense-threshold schedules: Q_10,
// whose order-bit vertex sets are 16 words long.
const thresholdOrder = 1 << 10

// thresholdSchedule is a broadcast on Q_10 from vertex 0 whose later
// rounds have m calls: around the 16 words of the vertex sets, so a
// round of 15 calls clears element by element and one of 16 or more
// word-wide, in broadcast and gossip states alike. After the five
// binomial rounds that inform [0, 32) come round A (caller j to
// j|32, j < m), round B (j|32 to j|96), a 3-call sparse round C (j|96
// to j|224) and round D (j|32 to j|160 for j < m-1, then 0 to 32
// again): B, C and D reuse A's and each other's callers, receivers and
// edges, so state a reset left behind shows up as a stale conflict.
// conflict plants one in round A: "edge" routes calls 1 and 2 over
// call 0's edge to fresh receivers, "receiver" sends calls 1 and 2 to
// call 0's receiver (a third use: over capacity 2 as well), "caller"
// gives the last call call 0's caller; "" plants none. The edge and receiver conflicts recur in round D, over the
// edge and to the receiver of the last call, so a conflict shadow a
// reset left behind would hide the second report.
func thresholdSchedule(m int, conflict string) *Schedule {
	s := &Schedule{Source: 0}
	for r := range 5 {
		var round Round
		for v := uint64(0); v < 1<<r; v++ {
			round = append(round, Call{Path: []uint64{v, v | 1<<r}})
		}
		s.Rounds = append(s.Rounds, round)
	}
	var a, b, c, d Round
	for j := uint64(0); j < uint64(m); j++ {
		a = append(a, Call{Path: []uint64{j, j | 32}})
		b = append(b, Call{Path: []uint64{j | 32, j | 96}})
		if j < 3 {
			c = append(c, Call{Path: []uint64{j | 96, j | 224}})
		}
		if j < uint64(m-1) {
			d = append(d, Call{Path: []uint64{j | 32, j | 160}})
		}
	}
	d = append(d, Call{Path: []uint64{0, 32}})
	switch conflict {
	case "edge":
		a[1].Path = []uint64{1, 0, 32, 32 | 512}
		a[2].Path = []uint64{2, 0, 32, 32 | 256}
		d[1].Path = []uint64{33, 32, 0, 256}
	case "receiver":
		a[1].Path = []uint64{1, 33, 32}
		a[2].Path = []uint64{2, 34, 32}
		d[1].Path = []uint64{33, 32}
	case "caller":
		a[m-1].Path = []uint64{0, 256}
	}
	s.Rounds = append(s.Rounds, a, b, c, d)
	return s
}

// TestCSRDenseThreshold puts both sides of the dense-round threshold
// under the differential oracle: rounds of 15, 16 and 17 calls on Q_10,
// clean and with each planted conflict, under Definition 1, each
// generalised capacity, both, and AllowInformedReceiver, on the CSR
// engine under both slot numberings, streamed and in open ranges, must
// all equal Validate (open ranges whenever the merge accepts).
func TestCSRDenseThreshold(t *testing.T) {
	for m, dense := range map[int]bool{15: false, 16: true, 17: true} {
		if denseRound(m, thresholdOrder) != dense {
			t.Fatalf("a %d-call round on order %d: dense = %v", m, thresholdOrder, !dense)
		}
	}
	nets := engines(10)
	const k = 3
	wantKind := map[string]ViolationKind{"edge": EdgeConflict, "receiver": ReceiverConflict, "caller": CallerDuplicate}
	for _, m := range []int{15, 16, 17} {
		for _, conflict := range []string{"", "edge", "receiver", "caller"} {
			s := thresholdSchedule(m, conflict)
			for _, opts := range []Options{
				DefaultOptions(),
				{EdgeCapacity: 2, ReceiverCapacity: 1},
				{EdgeCapacity: 1, ReceiverCapacity: 2},
				{EdgeCapacity: 2, ReceiverCapacity: 2},
				{EdgeCapacity: 1, ReceiverCapacity: 1, AllowInformedReceiver: true},
			} {
				want := ValidateOpts(nets["csr"], k, s, opts)
				if opts == DefaultOptions() {
					kinds := map[ViolationKind]bool{}
					for _, v := range want.Violations {
						kinds[v.Kind] = true
					}
					if conflict == "" && !kinds[ReceiverInformed] || conflict != "" && !kinds[wantKind[conflict]] {
						t.Fatalf("m=%d %q: the oracle does not see the planted case: %+v", m, conflict, want.Violations)
					}
				}
				if conflict == "" && opts.AllowInformedReceiver && !want.Valid() {
					t.Fatalf("m=%d: the clean schedule is rejected: %v", m, want.Err())
				}
				for name, net := range nets {
					if got := ValidateStreamOpts(net, k, s.Source, s.Stream(), opts); !reflect.DeepEqual(want, got) {
						t.Fatalf("m=%d %q %+v %s: stream diverges:\nserial: %+v\nstream: %+v", m, conflict, opts, name, want, got)
					}
					for _, bounds := range [][]int{{0, 5, 7, 9}, {0, 6, 8, 9}} {
						checkOpenRanges(t, net, k, s, bounds, opts, want)
					}
				}
			}
		}
	}
}
