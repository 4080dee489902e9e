package linecomm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// Stream-vs-serial crosschecks for the gossip validator, mirroring the
// broadcast crosschecks: for k in {1, 2, 3}, ValidateGossipStream must
// produce byte-identical Results to the serial ValidateGossip on intact,
// mutated and randomly corrupted gather-scatter schedules, on the CSR
// engine over the closed-form edge slots the sparse hypercube's
// DimensionedNetwork contract enables. FuzzValidateGossip pins the same
// equality on random inputs over general graphs.

// crosscheckCases returns the (k, cube) instances the crosschecks run on.
func crosscheckCases(t *testing.T) []*core.SparseHypercube {
	t.Helper()
	var out []*core.SparseHypercube
	for _, p := range []core.Params{
		core.HypercubeParams(6), // k = 1
		core.BaseParams(8, 3),   // k = 2
		core.RecParams(9, 5, 2), // k = 3
	} {
		s, err := core.New(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// mustMatchSerialGossip asserts the streamed validator reproduces the
// serial Result exactly — violations, order, messages, flags, counts —
// with the schedule's source as the hub (the certificate decides where
// it can) and with no hub (the token simulation always decides).
func mustMatchSerialGossip(t *testing.T, s *core.SparseHypercube, k int, sched *linecomm.Schedule) {
	t.Helper()
	want := linecomm.ValidateGossip(s, k, sched)
	for _, hub := range []uint64{sched.Source, linecomm.NoHub} {
		got := linecomm.ValidateGossipStream(s, k, hub, sched.Stream())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("hub %d diverges from serial:\nserial: %+v\nstream: %+v", hub, want, got)
		}
	}
}

func TestGossipStreamMatchesSerialOnIntactSchedules(t *testing.T) {
	for _, s := range crosscheckCases(t) {
		for _, root := range []uint64{0, s.Order() - 1, s.Order() / 3} {
			sched := linecomm.FromBroadcast(s.BroadcastSchedule(root))
			res := linecomm.ValidateGossip(s, s.K(), sched)
			if err := res.Err(); err != nil {
				t.Fatalf("k=%d root=%d: base schedule invalid: %v", s.K(), root, err)
			}
			if !res.Complete || !res.Simulated || res.Rounds != 2*s.N() {
				t.Fatalf("k=%d root=%d: base schedule incomplete: %+v", s.K(), root, res)
			}
			mustMatchSerialGossip(t, s, s.K(), sched)
		}
	}
}

// gossipMutation is one structural corruption of a gather-scatter
// schedule; mut returns false when inapplicable.
type gossipMutation struct {
	name string
	mut  func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool
}

func gossipMutations() []gossipMutation {
	pick := func(rng *rand.Rand, sched *linecomm.Schedule) (int, int) {
		ri := rng.Intn(len(sched.Rounds))
		return ri, rng.Intn(len(sched.Rounds[ri]))
	}
	return []gossipMutation{
		{"busy-endpoint", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			// Duplicate a call inside its round: both endpoints busy twice
			// and every path edge reused.
			ri, ci := pick(rng, sched)
			c := sched.Rounds[ri][ci]
			sched.Rounds[ri] = append(sched.Rounds[ri],
				linecomm.Call{Path: append([]uint64(nil), c.Path...)})
			return true
		}},
		{"non-edge-hop", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			// Retarget a receiver at Hamming distance 2: no such edge.
			ri, ci := pick(rng, sched)
			p := sched.Rounds[ri][ci].Path
			p[len(p)-1] = p[0] ^ 3
			return true
		}},
		{"repeated-vertex", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			ri, ci := pick(rng, sched)
			c := &sched.Rounds[ri][ci]
			c.Path = append(c.Path, c.Path[len(c.Path)-2], c.Path[len(c.Path)-1])
			return true
		}},
		{"overlong-call", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			// Extend past k by walking base-dimension edges (dimension 1
			// always exists), keeping the path structurally sound.
			ri, ci := pick(rng, sched)
			c := &sched.Rounds[ri][ci]
			for hop := 0; hop <= s.K(); hop++ {
				last := c.Path[len(c.Path)-1]
				next := last ^ uint64(1)<<uint(hop%2) // alternate dims 1 and 2
				c.Path = append(c.Path, next)
			}
			return true
		}},
		{"out-of-range-vertex", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			ri, ci := pick(rng, sched)
			p := sched.Rounds[ri][ci].Path
			p[rng.Intn(len(p))] = s.Order() + uint64(rng.Intn(4))
			return true
		}},
		{"empty-path", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			ri, ci := pick(rng, sched)
			sched.Rounds[ri][ci].Path = sched.Rounds[ri][ci].Path[:1]
			return true
		}},
		{"dropped-call", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			// Drop a first-gather-round call: the caller is a leaf of the
			// broadcast tree whose only other appearance is the final
			// scatter round, so its token provably strands (incomplete,
			// but structurally valid). Later-round calls can be redundant
			// — telephone exchanges move tokens both ways.
			r := sched.Rounds[0]
			ci := rng.Intn(len(r))
			sched.Rounds[0] = append(r[:ci], r[ci+1:]...)
			return true
		}},
		{"truncated-schedule", func(rng *rand.Rand, s *core.SparseHypercube, sched *linecomm.Schedule) bool {
			sched.Rounds = sched.Rounds[:len(sched.Rounds)-1-rng.Intn(2)]
			return true
		}},
	}
}

func cloneSchedule(s *linecomm.Schedule) *linecomm.Schedule {
	out := &linecomm.Schedule{Source: s.Source, Rounds: make([]linecomm.Round, len(s.Rounds))}
	for i, r := range s.Rounds {
		out.Rounds[i] = linecomm.CloneRound(r)
	}
	return out
}

func TestGossipStreamMatchesSerialOnMutations(t *testing.T) {
	for _, s := range crosscheckCases(t) {
		base := linecomm.FromBroadcast(s.BroadcastSchedule(0))
		for _, m := range gossipMutations() {
			rng := rand.New(rand.NewSource(42))
			applied := false
			for trial := 0; trial < 10; trial++ {
				sched := cloneSchedule(base)
				if !m.mut(rng, s, sched) {
					continue
				}
				applied = true
				res := linecomm.ValidateGossip(s, s.K(), sched)
				if res.Valid() && res.Complete {
					t.Fatalf("k=%d: mutation %q went undetected", s.K(), m.name)
				}
				mustMatchSerialGossip(t, s, s.K(), sched)
				// A mutation that plants a defect must reach the exact path,
				// and only the calls the violations name may take it: the
				// kernel accepts every clean call.
				if got, want := exactCalls(s, sched), violatingCalls(res); got != want || want == 0 && !res.Valid() {
					t.Fatalf("k=%d: mutation %q sent %d calls to the exact path, want the %d with violations",
						s.K(), m.name, got, want)
				}
			}
			if !applied {
				t.Fatalf("mutation %q never applicable", m.name)
			}
		}
	}
}

// exactCalls streams sched through the gossip validator once and
// returns how many of its calls took the exact path.
func exactCalls(s *core.SparseHypercube, sched *linecomm.Schedule) int {
	_, exact0 := linecomm.CallPaths()
	linecomm.ValidateGossipStream(s, s.K(), sched.Source, sched.Stream())
	_, exact1 := linecomm.CallPaths()
	return int(exact1 - exact0)
}

// violatingCalls returns how many distinct calls res's violations name.
func violatingCalls(res *linecomm.GossipResult) int {
	calls := map[[2]int]bool{}
	for _, v := range res.Violations {
		if v.Round >= 0 {
			calls[[2]int{v.Round, v.Call}] = true
		}
	}
	return len(calls)
}

// TestGossipStreamMatchesSerialRandomCorruption goes beyond the curated
// catalogue: random low-level path edits, call duplications and
// truncations, all crosschecked for exact Result equality.
func TestGossipStreamMatchesSerialRandomCorruption(t *testing.T) {
	s, err := core.NewBase(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := linecomm.FromBroadcast(s.BroadcastSchedule(0))
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		sched := cloneSchedule(base)
		edits := rng.Intn(4) + 1
		for e := 0; e < edits; e++ {
			ri := rng.Intn(len(sched.Rounds))
			if len(sched.Rounds[ri]) == 0 {
				continue
			}
			ci := rng.Intn(len(sched.Rounds[ri]))
			c := &sched.Rounds[ri][ci]
			switch rng.Intn(5) {
			case 0: // corrupt one path vertex (possibly out of range)
				if len(c.Path) > 0 {
					c.Path[rng.Intn(len(c.Path))] = uint64(rng.Intn(int(s.Order()) + 4))
				}
			case 1: // extend the path
				c.Path = append(c.Path, uint64(rng.Intn(int(s.Order()))))
			case 2: // truncate the path
				c.Path = c.Path[:rng.Intn(len(c.Path)+1)]
			case 3: // duplicate an existing call into this round
				sched.Rounds[ri] = append(sched.Rounds[ri],
					linecomm.Call{Path: append([]uint64(nil), c.Path...)})
			case 4: // swap two calls (stresses first-claim index recovery)
				cj := rng.Intn(len(sched.Rounds[ri]))
				sched.Rounds[ri][ci], sched.Rounds[ri][cj] = sched.Rounds[ri][cj], sched.Rounds[ri][ci]
			}
		}
		mustMatchSerialGossip(t, s, s.K(), sched)
	}
}

// TestGossipStreamMatchesSerialOnForeignSchedules feeds the gossip
// validators schedules they were not built for — the dimension-exchange
// gossip (valid, minimum-time) and a broadcast schedule (valid gossip
// moves, incomplete) — and crosschecks equality there too.
func TestGossipStreamMatchesSerialOnForeignSchedules(t *testing.T) {
	s, err := core.New(core.HypercubeParams(6))
	if err != nil {
		t.Fatal(err)
	}
	exchange, err := linecomm.HypercubeExchange(6)
	if err != nil {
		t.Fatal(err)
	}
	res := linecomm.ValidateGossip(s, 1, exchange)
	if !res.Complete || !res.MinimumTime {
		t.Fatalf("dimension exchange misjudged: %+v", res)
	}
	mustMatchSerialGossip(t, s, 1, exchange)

	bc := s.BroadcastSchedule(0)
	res = linecomm.ValidateGossip(s, 1, bc)
	if res.Complete {
		t.Fatal("a one-way broadcast cannot complete gossip")
	}
	mustMatchSerialGossip(t, s, 1, bc)
}

// TestGossipStreamMatchesSerialAtDenseThreshold runs the broadcast
// dense-threshold schedules through the gossip validators: rounds of
// 15, 16 and 17 calls on Q_10 sit on both sides of the word count of
// the CSR engine's busy set (16 words), past which a round resets it
// whole, clean and with each planted conflict.
func TestGossipStreamMatchesSerialAtDenseThreshold(t *testing.T) {
	s, err := core.New(core.HypercubeParams(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{15, 16, 17} {
		for _, conflict := range []string{"", "edge", "receiver", "caller"} {
			mustMatchSerialGossip(t, s, 3, linecomm.ThresholdSchedule(m, conflict))
		}
	}
}
