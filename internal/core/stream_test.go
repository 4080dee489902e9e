package core

import (
	"reflect"
	"runtime"
	"testing"

	"sparsehypercube/internal/linecomm"
)

// collectStream materialises a round stream by deep-copying every yielded
// round (the iterator reuses its buffers).
func collectStream(s *SparseHypercube, source uint64) *linecomm.Schedule {
	out := &linecomm.Schedule{Source: source}
	for r := range s.ScheduleRounds(source) {
		out.Rounds = append(out.Rounds, linecomm.CloneRound(r))
	}
	return out
}

// streamEquivalenceParams covers all three construction families:
// k = 1 (full hypercube), k = 2 (Construct_BASE), k = 3 (Construct_REC),
// n <= 12 as the equivalence envelope.
func streamEquivalenceParams() []Params {
	return []Params{
		HypercubeParams(1),
		HypercubeParams(4),
		HypercubeParams(8),
		BaseParams(4, 2),
		BaseParams(9, 3),
		BaseParams(12, 4),
		{K: 3, Dims: []int{2, 4, 9}},
		{K: 3, Dims: []int{2, 5, 12}},
	}
}

// sourcesFor samples broadcast sources: every vertex for small cubes, a
// stride cover including both ends otherwise.
func sourcesFor(order uint64) []uint64 {
	if order <= 1<<8 {
		out := make([]uint64, order)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	var out []uint64
	for src := uint64(0); src < order; src += order / 31 {
		out = append(out, src)
	}
	return append(out, order-1)
}

// TestScheduleRoundsMatchesBroadcastSchedule is the byte-for-byte
// equivalence gate: the streamed rounds must reproduce BroadcastSchedule
// exactly, for every construction family and all sampled sources.
func TestScheduleRoundsMatchesBroadcastSchedule(t *testing.T) {
	for _, p := range streamEquivalenceParams() {
		s, err := New(p)
		if err != nil {
			t.Fatalf("New(%v): %v", p, err)
		}
		for _, src := range sourcesFor(s.Order()) {
			want := s.BroadcastSchedule(src)
			got := collectStream(s, src)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d dims=%v source %d: streamed schedule diverges", p.K, p.Dims, src)
			}
		}
	}
}

// TestScheduleRoundsParallel forces the worker pool (frontier above
// streamChunk needs n >= 12 and GOMAXPROCS > 1) and re-checks
// equivalence; under -race this doubles as a data-race probe.
func TestScheduleRoundsParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	s, err := NewBase(13, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []uint64{0, 4097, s.Order() - 1} {
		want := s.BroadcastSchedule(src)
		got := collectStream(s, src)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallel streamed schedule diverges at source %d", src)
		}
	}
}

// TestScheduleRoundsEarlyStop checks that breaking out of the iterator
// mid-broadcast neither hangs nor yields further rounds.
func TestScheduleRoundsEarlyStop(t *testing.T) {
	s, err := NewBase(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for range s.ScheduleRounds(0) {
		rounds++
		if rounds == 3 {
			break
		}
	}
	if rounds != 3 {
		t.Fatalf("iterated %d rounds after break at 3", rounds)
	}
}

// TestScheduleRoundsStorageSteps pins ScheduleRounds' storage policy.
// frontierCap steps each cube's capacity in 8x jumps down from the final
// round, so every round holds under 8x its own calls' storage and a full
// run allocates under 8/7 of the final round's; and a consumer that
// breaks early on an n = 22 cube allocates accordingly, never the final
// round's storage.
func TestScheduleRoundsStorageSteps(t *testing.T) {
	for n := 1; n <= MaxN; n++ {
		last := uint64(1) << (n - 1)
		c, total := 0, uint64(0)
		for f := 1; uint64(f) <= last; f *= 2 {
			if c < f {
				c = frontierCap(f, last)
				total += uint64(c)
			}
			if c < f || c >= 8*f {
				t.Fatalf("n=%d: capacity %d for a frontier of %d", n, c, f)
			}
		}
		if uint64(c) != last || 7*total > 8*last {
			t.Fatalf("n=%d: final capacity %d, %d calls allocated in all, final round %d", n, c, total, last)
		}
	}

	s, err := NewAuto(2, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Stop at a frontier of 512 calls. Each call holds a Call header, an
	// arena slot of k+1 words and two frontier words.
	const stopAfter = 10
	perCall := uint64(24 + 8*(s.K()+1) + 8*2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rounds := 0
	for range s.ScheduleRounds(5) {
		if rounds++; rounds == stopAfter {
			break
		}
	}
	runtime.ReadMemStats(&after)
	f := uint64(1) << (stopAfter - 1)
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, 8*f*perCall+4<<10; got > ceiling {
		t.Fatalf("stopping after round %d (%d calls) allocated %d bytes, ceiling %d", stopAfter, f, got, ceiling)
	}
}

// TestScheduleRoundsValidateStream runs the full streamed pipeline —
// generation feeding validation round by round — and requires a
// violation-free minimum-time broadcast (Theorems 4 and 6, streamed).
func TestScheduleRoundsValidateStream(t *testing.T) {
	for _, p := range []Params{BaseParams(14, 4), {K: 3, Dims: []int{2, 5, 13}}, {K: 4, Dims: []int{2, 4, 7, 14}}} {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		res := linecomm.ValidateStream(s, s.K(), 5, s.ScheduleRounds(5))
		if !res.Valid() || !res.MinimumTime || res.MaxCallLength > s.K() {
			t.Fatalf("k=%d dims=%v: streamed pipeline invalid: %v", p.K, p.Dims, res.Err())
		}
	}
}

// TestAppendCallPath pins the arena primitive against CallPath.
func TestAppendCallPath(t *testing.T) {
	s, err := New(Params{K: 3, Dims: []int{2, 5, 11}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, 0, 8)
	for u := uint64(0); u < s.Order(); u += 97 {
		for d := 1; d <= s.N(); d++ {
			want := s.CallPath(u, d)
			got := s.AppendCallPath(buf[:0], u, d)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("AppendCallPath(%d, %d) = %v, want %v", u, d, got, want)
			}
		}
	}
}
