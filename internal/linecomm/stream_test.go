package linecomm

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/topo"
)

// plainNet strips a GraphNetwork down to the bare Network interface, the
// shape of a network with no edge-slot numbering: ValidateStream judges
// it with the serial validator, the other streaming entry points refuse
// it. dimNet builds on it to hide the graph's own numbering.
type plainNet struct {
	g GraphNetwork
}

func (p plainNet) Order() uint64            { return p.g.Order() }
func (p plainNet) HasEdge(u, v uint64) bool { return p.g.HasEdge(u, v) }

// dimNet upgrades a plainNet over Q_n to a DimensionedNetwork: with the
// graph's own numbering hidden, the CSR engine runs on the closed-form
// slots dim*order + lower (Q_n satisfies the one-bit-per-edge contract).
type dimNet struct {
	plainNet
	n int
}

func (d dimNet) N() int { return d.n }

func (d dimNet) HasEdgeDim(u uint64, dim int) bool { return d.HasEdge(u, u^1<<(dim-1)) }

var _ DimensionedNetwork = dimNet{}

// engines returns the same Q_n network twice: bare, so the CSR engine
// runs on the graph's own slot numbering, and dimensioned, so it runs
// on the closed form. The suites crosscheck both against the serial
// validator.
func engines(n int) map[string]Network {
	g := GraphNetwork{G: topo.Hypercube(n)}
	return map[string]Network{"csr": g, "dim": dimNet{plainNet{g}, n}}
}

// mustMatchSerial asserts that the streaming validator reproduces the
// serial validator's Result exactly — violations, order, messages,
// per-round informed counts, flags.
func mustMatchSerial(t *testing.T, net Network, k int, s *Schedule) {
	t.Helper()
	want := Validate(net, k, s)
	got := ValidateStream(net, k, s.Source, s.Stream())
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stream result diverges from serial:\nserial: %+v\nstream: %+v", want, got)
	}
}

func TestValidateStreamMatchesSerialOnValidSchedule(t *testing.T) {
	const n = 8
	base := binomialSchedule(n)
	for name, net := range engines(n) {
		t.Run(name, func(t *testing.T) {
			res := ValidateStream(net, 1, base.Source, base.Stream())
			if !res.Valid() || !res.MinimumTime || res.Informed != 1<<n {
				t.Fatalf("valid schedule rejected: %v", res.Err())
			}
			mustMatchSerial(t, net, 1, base)
		})
	}
}

func TestValidateStreamMatchesSerialOnMutations(t *testing.T) {
	const n = 6
	base := binomialSchedule(n)
	for name, net := range engines(n) {
		t.Run(name, func(t *testing.T) {
			for _, m := range mutationsForQn(n) {
				rng := rand.New(rand.NewSource(42))
				for trial := 0; trial < 20; trial++ {
					s := cloneSchedule(base)
					if !m.mut(rng, s) {
						continue
					}
					if res := ValidateStream(net, 1, s.Source, s.Stream()); res.Valid() && res.Complete && res.MinimumTime {
						t.Fatalf("mutation %q went undetected by stream validator", m.name)
					}
					mustMatchSerial(t, net, 1, s)
				}
			}
		})
	}
}

// TestValidateStreamMultiBlock re-runs the mutation catalogue at a second
// seed and plants duplicate callers and shared receivers far apart in the
// widest round, so the round state carried across many calls (violation
// interleaving, duplicate-caller recovery, capacity tracking) must still
// match serial byte for byte on every engine.
func TestValidateStreamMultiBlock(t *testing.T) {
	const n = 6 // final round: 32 calls
	base := binomialSchedule(n)
	for name, net := range engines(n) {
		t.Run(name, func(t *testing.T) {
			mustMatchSerial(t, net, 1, base)
			for _, m := range mutationsForQn(n) {
				rng := rand.New(rand.NewSource(99))
				for trial := 0; trial < 10; trial++ {
					s := cloneSchedule(base)
					if !m.mut(rng, s) {
						continue
					}
					mustMatchSerial(t, net, 1, s)
				}
			}
			s := cloneSchedule(base)
			wide := s.Rounds[len(s.Rounds)-1]
			wide[9] = Call{Path: append([]uint64(nil), wide[1].Path...)} // dup caller+receiver, calls 1 vs 9
			wide[17].Path[len(wide[17].Path)-1] = wide[3].To()           // shared receiver, calls 3 vs 17
			wide[21] = Call{Path: append([]uint64(nil), wide[21].Path...)}
			wide[21].Path[0] = wide[5].Path[0] // dup caller, calls 5 vs 21
			mustMatchSerial(t, net, 1, s)
		})
	}
}

// TestValidateStreamMatchesSerialRandomCorruption goes beyond the curated
// mutation catalogue: random low-level path edits, call swaps and
// truncations, all crosschecked for exact Result equality on both slot
// numberings and on the bare network, which ValidateStream hands to the
// serial validator after materialising the corrupted rounds.
func TestValidateStreamMatchesSerialRandomCorruption(t *testing.T) {
	const n = 5
	base := binomialSchedule(n)
	rng := rand.New(rand.NewSource(7))
	nets := engines(n)
	nets["bare"] = plainNet{nets["csr"].(GraphNetwork)}
	for trial := 0; trial < 300; trial++ {
		s := cloneSchedule(base)
		edits := rng.Intn(4) + 1
		for e := 0; e < edits; e++ {
			ri := rng.Intn(len(s.Rounds))
			if len(s.Rounds[ri]) == 0 {
				continue
			}
			ci := rng.Intn(len(s.Rounds[ri]))
			c := &s.Rounds[ri][ci]
			switch rng.Intn(5) {
			case 0: // corrupt one path vertex (possibly out of range)
				if len(c.Path) > 0 {
					c.Path[rng.Intn(len(c.Path))] = uint64(rng.Intn(1<<n + 4))
				}
			case 1: // extend the path
				c.Path = append(c.Path, uint64(rng.Intn(1<<n)))
			case 2: // truncate the path
				c.Path = c.Path[:rng.Intn(len(c.Path)+1)]
			case 3: // duplicate an existing call into this round
				s.Rounds[ri] = append(s.Rounds[ri], Call{Path: append([]uint64(nil), c.Path...)})
			case 4: // retarget the receiver at another call's receiver
				cj := rng.Intn(len(s.Rounds[ri]))
				if to, ok := last(s.Rounds[ri][cj].Path); ok && len(c.Path) > 0 {
					c.Path[len(c.Path)-1] = to
				}
			}
		}
		for name, net := range nets {
			t.Run("", func(t *testing.T) { _ = name; mustMatchSerial(t, net, 1, s) })
		}
	}
}

func last(p []uint64) (uint64, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// TestValidateStreamInconsistentWidthRefused wraps Q_n with a lying
// address width (Order > 1<<N), whose closed-form edge slots would
// alias. Every streaming entry point must refuse it, before consuming a
// round, with one SimulationCapExceeded violation (mustRefuse).
func TestValidateStreamInconsistentWidthRefused(t *testing.T) {
	const n = 6
	liar := dimNet{plainNet{GraphNetwork{G: topo.Hypercube(n)}}, n - 2}
	if _, ok := slottedFor(liar, liar.Order(), DefaultOptions()); ok {
		t.Fatal("lying width accepted by slottedFor")
	}
	mustRefuse(t, liar, true)
}

func TestValidateStreamSourceOutOfRange(t *testing.T) {
	const n = 4
	for _, net := range engines(n) {
		res := ValidateStream(net, 1, 1<<n, binomialSchedule(n).Stream())
		if res.Valid() || res.Violations[0].Kind != VertexOutOfRange {
			t.Fatalf("out-of-range source not reported: %+v", res)
		}
	}
}

func TestValidateStreamOptsGeneralisedCapacities(t *testing.T) {
	// Two calls over the same edge and onto the same receiver: illegal
	// under Definition 1, legal with capacity 2. The capacity-2 model
	// runs on the CSR engine's per-slot counters — over the graph's own
	// slots for the bare net, the closed-form slots for the dimensioned
	// one; crosscheck both against serial ValidateOpts.
	s := &Schedule{Source: 0, Rounds: []Round{
		{{Path: []uint64{0, 1}}},
		{{Path: []uint64{0, 1, 3}}, {Path: []uint64{1, 3}}},
	}}
	opts := Options{EdgeCapacity: 2, ReceiverCapacity: 2, AllowInformedReceiver: true}
	for name, net := range engines(3) {
		want := ValidateOpts(net, 2, s, opts)
		got := ValidateStreamOpts(net, 2, s.Source, s.Stream(), opts)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: capacity-2 stream diverges:\nserial: %+v\nstream: %+v", name, want, got)
		}
		if len(got.Violations) != 0 {
			t.Fatalf("%s: capacity-2 model should accept the dilated round: %v", name, got.Err())
		}
		// Same schedule under Definition 1 must flag both conflicts.
		res := ValidateStream(net, 2, s.Source, s.Stream())
		if res.Valid() {
			t.Fatalf("%s: Definition 1 should reject the dilated round", name)
		}
	}
}

// TestCallerCheckOrder pins where the caller-knowledge check sits in a
// call's violations: after the structural ones, before the duplicate
// caller, and for structurally bad calls too. Round 1 opens with a call
// that is too long (k = 1, two hops) from an uninformed caller, then the
// same call again (same caller, edges and receiver), then a call with
// no edge from another uninformed caller and a repeated-vertex call from
// that caller, then valid calls. The stream must equal Validate on
// every engine, and so must open ranges cut at each round whenever
// their merge accepts.
func TestCallerCheckOrder(t *testing.T) {
	s := &Schedule{Source: 0, Rounds: []Round{
		{{Path: []uint64{0, 1}}},
		{
			{Path: []uint64{2, 3, 7}}, // too long, caller 2 uninformed
			{Path: []uint64{2, 3, 7}}, // and again: duplicate caller, edge and receiver
			{Path: []uint64{5, 6}},    // no edge, caller 5 uninformed
			{Path: []uint64{5, 5}},    // repeated vertex, duplicate caller 5
			{Path: []uint64{0, 4}},
			{Path: []uint64{1, 3}},
		},
		{{Path: []uint64{3, 2}}, {Path: []uint64{4, 6}}},
	}}
	want := Validate(engines(3)["csr"], 1, s)
	var kinds []ViolationKind
	for _, v := range want.Violations {
		if v.Round == 1 && v.Call == 1 {
			kinds = append(kinds, v.Kind)
		}
	}
	if !reflect.DeepEqual(kinds, []ViolationKind{PathTooLong, CallerUninformed, CallerDuplicate,
		EdgeConflict, EdgeConflict, ReceiverConflict}) {
		t.Fatalf("serial violations of the repeated call: %v", kinds)
	}
	for name, net := range engines(3) {
		if got := ValidateStream(net, 1, s.Source, s.Stream()); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: stream diverges from serial:\nserial: %+v\nstream: %+v", name, want, got)
		}
		for _, bounds := range [][]int{{0, 1, 3}, {0, 2, 3}, {0, 1, 2, 3}} {
			checkOpenRanges(t, net, 1, s, bounds, DefaultOptions(), want)
		}
	}
}

// TestRoundStateCleared checks that no per-round state survives its
// round. Each conflict round holds an edge conflict, a receiver conflict
// and calls from a duplicate caller to a receiver no other call of the
// round targets; the clean round after it reuses those slots, receivers
// and callers validly, and must report nothing. The pair then repeats,
// so a dup-shadow bit left over from the first conflict would hide the
// second. A narrow pair runs first (per-slot clears), then a pair built
// on the binomial broadcast's last round, which touches more edge slots
// than the edge sets have words (wholesale resets). Informed receivers
// are allowed, so only the reuse is judged.
func TestRoundStateCleared(t *testing.T) {
	const n = 7
	bin := binomialSchedule(n)
	wide := bin.Rounds[n-1] // w -> w^1 for every w with bit 0 clear
	for _, opts := range []Options{
		{EdgeCapacity: 1, ReceiverCapacity: 1, AllowInformedReceiver: true},
		{EdgeCapacity: 1, ReceiverCapacity: 2, AllowInformedReceiver: true},
		{EdgeCapacity: 2, ReceiverCapacity: 2, AllowInformedReceiver: true},
	} {
		over := max(opts.EdgeCapacity, opts.ReceiverCapacity) // extra copies that overflow both
		// conflict returns r plus over copies of its first call (edge and
		// receiver conflicts, duplicate caller) and over calls from that
		// caller to fresh, a receiver only they target.
		conflict := func(r Round, fresh uint64) Round {
			out := cloneSchedule(&Schedule{Rounds: []Round{r}}).Rounds[0]
			for range over {
				out = append(out, Call{Path: []uint64{r[0].From(), r[0].To()}},
					Call{Path: []uint64{r[0].From(), fresh}})
			}
			return out
		}
		narrowHit := conflict(Round{{Path: []uint64{0, 64}}}, 1)
		narrowClean := Round{{Path: []uint64{0, 64}}, {Path: []uint64{64, 65, 1}}}
		wideHit := conflict(wide, 2)
		wideClean := cloneSchedule(&Schedule{Rounds: []Round{wide}}).Rounds[0]
		six := slices.IndexFunc(wideClean, func(c Call) bool { return c.From() == 6 })
		wideClean[six] = Call{Path: []uint64{6, 2}} // was 6 -> 7

		s := &Schedule{Source: 0, Rounds: []Round{narrowHit, narrowClean, narrowHit, narrowClean}}
		s.Rounds = append(s.Rounds, bin.Rounds[:n-1]...)
		s.Rounds = append(s.Rounds, wideHit, wideClean, wideHit, wideClean)
		hits := map[int]bool{0: true, 2: true, n + 3: true, n + 5: true}

		g := GraphNetwork{G: topo.Hypercube(n)}
		if len(wideHit) <= (g.NumEdgeSlots()+63)/64 {
			t.Fatalf("wide round has %d calls: too narrow to reset the edge sets wholesale", len(wideHit))
		}
		want := ValidateOpts(g, 2, s, opts)
		for _, v := range want.Violations {
			if !hits[v.Round] {
				t.Fatalf("%+v: serial reports %v in clean round %d", opts, v, v.Round)
			}
		}
		for _, r := range []int{0, n + 3} {
			if !slices.ContainsFunc(want.Violations, func(v Violation) bool { return v.Round == r }) {
				t.Fatalf("%+v: conflict round %d reports nothing", opts, r)
			}
		}
		for name, net := range engines(n) {
			if got := ValidateStreamOpts(net, 2, s.Source, s.Stream(), opts); !reflect.DeepEqual(want, got) {
				t.Fatalf("%+v %s: stream diverges from serial:\nserial: %+v\nstream: %+v", opts, name, want, got)
			}
		}
	}
}

// TestValidateStreamSharded validates binomial n = 12, whose final rounds
// have 2,048+ calls, at GOMAXPROCS 4 and 1: each run must match serial, so
// the result cannot depend on the processor count, and under -race the
// wide rounds run with several Ps available.
func TestValidateStreamSharded(t *testing.T) {
	const n = 12
	base := binomialSchedule(n)
	for name, net := range engines(n) {
		t.Run(name, func(t *testing.T) {
			for _, procs := range []int{4, 1} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					mustMatchSerial(t, net, 1, base)
				}()
			}
		})
	}
}

func TestValidateStreamEarlyRounds(t *testing.T) {
	// A truncated stream (fewer than log2 N rounds) must be incomplete
	// but violation-free.
	const n = 6
	base := binomialSchedule(n)
	base.Rounds = base.Rounds[:3]
	for _, net := range engines(n) {
		res := ValidateStream(net, 1, base.Source, base.Stream())
		if !res.Valid() || res.Complete || res.MinimumTime {
			t.Fatalf("truncated schedule misjudged: %+v", res)
		}
		if len(res.InformedPerRound) != 3 || res.Informed != 8 {
			t.Fatalf("informed accounting wrong: %+v", res)
		}
	}
}

// BenchmarkValidateStreamGraph validates TreeRounds broadcasts on
// 2^14-vertex random general graphs, materialised in set-up so only the
// validator is timed: /regular8 (random 8-regular, a few wide rounds)
// and /ktree8 (random 8-tree, thousands of narrow rounds).
func BenchmarkValidateStreamGraph(b *testing.B) {
	const order = 1 << 14
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"regular8", topo.RandomRegular(order, 8, 1)},
		{"ktree8", topo.RandomKTree(order, 8, 1)},
	} {
		b.Run(fam.name, func(b *testing.B) {
			s := treeSchedule(fam.g, 0)
			net := GraphNetwork{G: fam.g}
			if res := ValidateStream(net, 1, s.Source, s.Stream()); !res.Valid() || !res.Complete {
				b.Fatalf("tree broadcast rejected: %v", res.Err())
			}
			b.ReportAllocs()
			for b.Loop() {
				ValidateStream(net, 1, s.Source, s.Stream())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.Rounds)), "ns/round")
		})
	}
}
