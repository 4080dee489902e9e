package linecomm

import (
	"iter"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sparsehypercube/internal/bitvec"
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

// validateOpenRanges is the range pipeline over a materialised schedule
// cut at bounds (bounds[0] = 0, ascending, last = len(s.Rounds); equal
// neighbours make empty ranges): validate each range with an open
// boundary, then merge, checking the boundary assumptions.
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

// TestRangeValidationMatchesSerial: splitting a schedule into open
// round ranges and merging must reproduce the serial ValidateStream
// Result whenever the merge accepts, and the merge must accept whenever
// the serial Result shows no false boundary assumption — on the intact
// schedule and on every catalogue mutation, at the even splits and at
// every single cut, on the CSR engine under both slot numberings. The
// catalogue must make the merge reject somewhere, so the check is not
// vacuous.
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
			for _, s := range schedules {
				serial := ValidateStream(net.net, 1, s.Source, s.Stream())
				var cuts [][]int
				for _, workers := range []int{2, 3, len(s.Rounds)} {
					cuts = append(cuts, evenBounds(len(s.Rounds), workers))
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
	merged := mergeRangeResults(0, []*Result{res})
	if merged.Complete || merged.MinimumTime {
		t.Fatalf("order-0 merge judged complete: %+v", merged)
	}
}

// emptyNet is a 0-vertex network.
type emptyNet struct{}

func (emptyNet) Order() uint64            { return 0 }
func (emptyNet) HasEdge(u, v uint64) bool { return false }

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
	whole := func() *OpenRange {
		return ValidateStreamOpen(net, 1, s.Source, 0, s.Stream(), DefaultOptions())
	}

	// A single-range partition: one validator over everything.
	if got, ok := MergeOpenRanges(net.Order(), s.Source, []*OpenRange{whole()}); !ok || !reflect.DeepEqual(serial, got) {
		t.Fatalf("single-range merge diverges (accepted %v):\nserial: %+v\nmerged: %+v", ok, serial, got)
	}

	// An empty range after full coverage: no rounds, so it informs and
	// assumes nothing. It contributes nothing but its (shifted) final
	// count, and the merge must still come out serial-identical.
	empty := ValidateStreamOpen(net, 1, s.Source, len(s.Rounds), func(yield func(Round) bool) {}, DefaultOptions())
	if len(empty.Result().InformedPerRound) != 0 || empty.Result().Informed != 1 || empty.Assumed().Count() != 0 {
		t.Fatalf("empty range reported work: %+v", empty.Result())
	}
	if got, ok := MergeOpenRanges(net.Order(), s.Source, []*OpenRange{whole(), empty}); !ok || !reflect.DeepEqual(serial, got) {
		t.Fatalf("empty-range merge diverges (accepted %v):\nserial: %+v\nmerged: %+v", ok, serial, got)
	}

	// A part rebuilt from the wire with sets over another order is
	// refused, not merged or a panic.
	for _, p := range []*OpenRange{
		NewOpenRange(whole().Result(), bitvec.New(int(net.Order())+1), nil),
		NewOpenRange(empty.Result(), empty.Informed(), bitvec.New(1)),
	} {
		if got, ok := MergeOpenRanges(net.Order(), s.Source, []*OpenRange{whole(), p}); ok {
			t.Fatalf("a part over the wrong order merged: %+v", got)
		}
	}
}
