package linecomm

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sparsehypercube/internal/topo"
)

// plainNet strips a GraphNetwork down to the bare Network interface so
// the validator cannot see its slot numbering and falls back to the map
// engine. Tests use it to keep mapState covered now that a bare
// GraphNetwork routes to the CSR engine.
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

// engines returns the same Q_n network three times: wrapped so only the
// map engine applies, bare so the CSR engine runs on the graph's own
// slot numbering, and dimensioned so it runs on the closed form.
func engines(n int) map[string]Network {
	g := GraphNetwork{G: topo.Hypercube(n)}
	return map[string]Network{"map": plainNet{g}, "csr": g, "dim": dimNet{plainNet{g}, n}}
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

// TestValidateStreamMatchesSerialRandomCorruption goes beyond the curated
// mutation catalogue: random low-level path edits, call swaps and
// truncations, all crosschecked for exact Result equality on every engine.
func TestValidateStreamMatchesSerialRandomCorruption(t *testing.T) {
	const n = 5
	base := binomialSchedule(n)
	rng := rand.New(rand.NewSource(7))
	nets := engines(n)
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

// TestValidateStreamMultiBlock shrinks streamBlock so rounds span many
// fill/merge cycles, then re-runs the mutation catalogue and checks the
// cross-block state (violation interleaving, duplicate-caller recovery,
// capacity tracking) still matches serial byte for byte on every engine.
func TestValidateStreamMultiBlock(t *testing.T) {
	prev := streamBlock
	streamBlock = 4
	defer func() { streamBlock = prev }()
	const n = 6 // final round: 32 calls = 8 blocks
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
			// Violations straddling block boundaries: duplicate callers
			// and shared receivers planted in distinct blocks of the
			// widest round.
			s := cloneSchedule(base)
			wide := s.Rounds[len(s.Rounds)-1]
			wide[9] = Call{Path: append([]uint64(nil), wide[1].Path...)} // dup caller+receiver, blocks 0 vs 2
			wide[17].Path[len(wide[17].Path)-1] = wide[3].To()           // shared receiver, blocks 0 vs 4
			wide[21] = Call{Path: append([]uint64(nil), wide[21].Path...)}
			wide[21].Path[0] = wide[5].Path[0] // dup caller, blocks 1 vs 5
			mustMatchSerial(t, net, 1, s)
		})
	}
}

func last(p []uint64) (uint64, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// TestValidateStreamInconsistentWidthFallsBack wraps Q_n with a lying
// address width (Order > 1<<N). The engine selection must reject the
// contract violation and fall back to the map engine — the wrapper
// carries no slot numbering of its own — so the Result still matches
// serial instead of aliasing closed-form edge slots.
func TestValidateStreamInconsistentWidthFallsBack(t *testing.T) {
	const n = 6
	liar := dimNet{plainNet{GraphNetwork{G: topo.Hypercube(n)}}, n - 2}
	if _, ok := newRoundState(liar, liar.Order(), 0, DefaultOptions()).(*mapState); !ok {
		t.Fatal("lying width did not fall back to the map engine")
	}
	mustMatchSerial(t, liar, 1, binomialSchedule(n))
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
	// one — or on the map engine for the wrapped net; crosscheck every
	// engine against serial ValidateOpts.
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

// TestValidateStreamSharded forces the parallel fill phase (frontiers
// above streamShardChunk with GOMAXPROCS > 1) and checks serial equality;
// under -race this also exercises the worker pool for data races.
func TestValidateStreamSharded(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const n = 12 // final rounds have 2048+ calls
	base := binomialSchedule(n)
	for name, net := range engines(n) {
		t.Run(name, func(t *testing.T) {
			mustMatchSerial(t, net, 1, base)
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
