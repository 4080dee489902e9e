package linecomm

import (
	"iter"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparsehypercube/internal/topo"
)

// rangeStream yields rounds [lo, hi) of a materialised schedule.
func rangeStream(s *Schedule, lo, hi int) iter.Seq[Round] {
	return func(yield func(Round) bool) {
		for _, r := range s.Rounds[lo:hi] {
			if !yield(r) {
				return
			}
		}
	}
}

// validateInRanges is the reference parallel pipeline over a
// materialised schedule cut at bounds (bounds[0] = 0, ascending, last =
// len(s.Rounds); equal neighbours make empty ranges): collect per-range
// informed deltas, prefix-union them into seeds, validate each range
// seeded, merge.
func validateInRanges(net Network, k int, source uint64, s *Schedule, bounds []int, opts Options) *Result {
	ranges := len(bounds) - 1
	deltas := make([][]uint64, ranges)
	for w := range ranges {
		deltas[w] = CollectInformedStream(net, rangeStream(s, bounds[w], bounds[w+1]))
	}
	parts := make([]*Result, ranges)
	var seed []uint64
	for w := range ranges {
		parts[w] = ValidateStreamSeeded(net, k, source, seed, bounds[w],
			rangeStream(s, bounds[w], bounds[w+1]), opts)
		seed = append(seed, deltas[w]...)
	}
	return MergeRangeResults(net.Order(), parts)
}

// validateOpenRanges is the one-pass pipeline over the same cuts:
// validate each range with an open boundary, then merge, checking the
// boundary assumptions.
func validateOpenRanges(net Network, k int, source uint64, s *Schedule, bounds []int, opts Options) (*Result, bool) {
	parts := make([]*OpenRange, len(bounds)-1)
	for w := range parts {
		parts[w] = ValidateStreamOpen(net, k, source, bounds[w],
			rangeStream(s, bounds[w], bounds[w+1]), opts)
	}
	return MergeOpenRanges(net.Order(), source, parts)
}

// checkOpenRanges holds the open merge to its contract on one cut of s:
// whenever it accepts, its Result is the serial one, and it accepts
// whenever the serial Result has no caller-knowledge or
// receiver-informed violation (the only decisions an open boundary
// assumes) under the strict receiver model. It reports whether the
// merge accepted.
func checkOpenRanges(t testing.TB, net Network, k int, s *Schedule, bounds []int, opts Options, serial *Result) bool {
	t.Helper()
	got, ok := validateOpenRanges(net, k, s.Source, s, bounds, opts)
	if ok && !reflect.DeepEqual(serial, got) {
		t.Fatalf("open ranges %v on %T accepted a diverging Result under %+v:\nserial: %+v\nmerged: %+v",
			bounds, net, opts, serial, got)
	}
	mustAccept := !opts.AllowInformedReceiver && !slices.ContainsFunc(serial.Violations, func(v Violation) bool {
		return v.Kind == CallerUninformed || v.Kind == ReceiverInformed
	})
	if mustAccept && !ok {
		t.Fatalf("open ranges %v on %T rejected a schedule whose serial Result assumes nothing false:\n%+v",
			bounds, net, serial)
	}
	return ok
}

// evenBounds cuts rounds into workers ranges of about equal round count.
func evenBounds(rounds, workers int) []int {
	bounds := make([]int, workers+1)
	for w := range workers + 1 {
		bounds[w] = w * rounds / workers
	}
	return bounds
}

// TestRangeValidationMatchesSerial: splitting a schedule into seeded
// round ranges and merging must reproduce the serial ValidateStream
// Result exactly — on the intact schedule and on every catalogue
// mutation, on the CSR engine under both slot numberings. The open
// merge is held to its contract on the same schedules at every single
// cut and at the even splits, and the catalogue must make it reject
// somewhere, so the check is not vacuous.
func TestRangeValidationMatchesSerial(t *testing.T) {
	const n = 6
	g := topo.Hypercube(n)
	for _, net := range []struct {
		name string
		net  Network
	}{
		{"csr-engine", GraphNetwork{G: g}},
		{"dim-engine", dimNet{plainNet{GraphNetwork{G: g}}, n}},
	} {
		t.Run(net.name, func(t *testing.T) {
			base := binomialSchedule(n)
			schedules := []*Schedule{base}
			rng := rand.New(rand.NewSource(7))
			for _, m := range mutationsForQn(n) {
				s := cloneSchedule(base)
				if m.mut(rng, s) {
					schedules = append(schedules, s)
				}
			}
			rejected := 0
			for si, s := range schedules {
				serial := ValidateStream(net.net, 1, s.Source, s.Stream())
				var cuts [][]int
				for _, workers := range []int{2, 3, len(s.Rounds)} {
					bounds := evenBounds(len(s.Rounds), workers)
					cuts = append(cuts, bounds)
					got := validateInRanges(net.net, 1, s.Source, s, bounds, DefaultOptions())
					if !reflect.DeepEqual(serial, got) {
						t.Fatalf("schedule %d, %d workers: merged range Result diverges\nserial: %+v\nmerged: %+v",
							si, workers, serial, got)
					}
				}
				for c := 1; c < len(s.Rounds); c++ {
					cuts = append(cuts, []int{0, c, len(s.Rounds)})
				}
				for _, bounds := range cuts {
					if !checkOpenRanges(t, net.net, 1, s, bounds, DefaultOptions(), serial) {
						rejected++
					}
				}
			}
			if rejected == 0 {
				t.Error("the open merge accepted every cut of every mutation")
			}
		})
	}
}

// TestValidateStreamOrderZero: an order-0 network must report the
// source as out of range — not panic in MinimumRounds and not claim
// completeness vacuously (the pre-refactor early-return behaviour).
func TestValidateStreamOrderZero(t *testing.T) {
	res := ValidateStream(emptyNet{}, 1, 0, (&Schedule{}).Stream())
	if res.Complete || res.MinimumTime {
		t.Fatalf("order-0 network judged complete: %+v", res)
	}
	if len(res.Violations) != 1 || res.Violations[0].Kind != VertexOutOfRange {
		t.Fatalf("want one VertexOutOfRange violation, got %+v", res.Violations)
	}
	merged := MergeRangeResults(0, []*Result{res})
	if merged.Complete || merged.MinimumTime {
		t.Fatalf("order-0 merge judged complete: %+v", merged)
	}
}

// emptyNet is a 0-vertex network.
type emptyNet struct{}

func (emptyNet) Order() uint64            { return 0 }
func (emptyNet) HasEdge(u, v uint64) bool { return false }

// TestCollectInformedMatchesValidator: the structural collector must
// inform exactly the receivers the full validator informs — on valid
// and mutated schedules alike.
func TestCollectInformedMatchesValidator(t *testing.T) {
	const n = 5
	net := GraphNetwork{G: topo.Hypercube(n)}
	base := binomialSchedule(n)
	rng := rand.New(rand.NewSource(11))
	schedules := []*Schedule{base}
	for _, m := range mutationsForQn(n) {
		s := cloneSchedule(base)
		if m.mut(rng, s) {
			schedules = append(schedules, s)
		}
	}
	for si, s := range schedules {
		// Serial validation's informed count from source 0...
		serial := ValidateStream(net, 1, 0, s.Stream())
		// ...must equal |{0} ∪ collected receivers|.
		informed := map[uint64]bool{0: true}
		for _, v := range CollectInformedStream(net, s.Stream()) {
			informed[v] = true
		}
		if uint64(len(informed)) != serial.Informed {
			t.Fatalf("schedule %d: collector implies %d informed, validator says %d",
				si, len(informed), serial.Informed)
		}
	}
}

// TestMergeRangeResultsEdgeCases pins the merge on the degenerate
// partitions a distributed coordinator can produce: a single range
// covering the whole plan, and an empty range (zero rounds) appended
// after full coverage — both must reproduce the serial Result exactly,
// whole-schedule judgements (Complete, MinimumTime) included.
func TestMergeRangeResultsEdgeCases(t *testing.T) {
	const n = 6
	net := GraphNetwork{G: topo.Hypercube(n)}
	s := binomialSchedule(n)
	serial := ValidateStream(net, 1, s.Source, s.Stream())
	if !serial.Complete || !serial.MinimumTime {
		t.Fatalf("baseline schedule broken: %+v", serial)
	}

	// A single-range partition: one seeded validator over everything.
	whole := ValidateStreamSeeded(net, 1, s.Source, nil, 0, s.Stream(), DefaultOptions())
	if got := MergeRangeResults(net.Order(), []*Result{whole}); !reflect.DeepEqual(serial, got) {
		t.Fatalf("single-range merge diverges:\nserial: %+v\nmerged: %+v", serial, got)
	}

	// An empty range after full coverage: no rounds, the full informed
	// set as seed. It contributes nothing but its (correct) final count,
	// and the merge must still come out serial-identical.
	delta := CollectInformedStream(net, s.Stream())
	empty := ValidateStreamSeeded(net, 1, s.Source, delta, len(s.Rounds),
		func(yield func(Round) bool) {}, DefaultOptions())
	if len(empty.InformedPerRound) != 0 {
		t.Fatalf("empty range reported rounds: %+v", empty)
	}
	if empty.Informed != serial.Informed {
		t.Fatalf("empty range count %d, want %d", empty.Informed, serial.Informed)
	}
	if got := MergeRangeResults(net.Order(), []*Result{whole, empty}); !reflect.DeepEqual(serial, got) {
		t.Fatalf("empty-range merge diverges:\nserial: %+v\nmerged: %+v", serial, got)
	}
}
