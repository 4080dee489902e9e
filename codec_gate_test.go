package sparsehypercube_test

import (
	"bytes"
	"hash/crc32"
	"runtime"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/schedio"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocBytes returns the fewest heap bytes f allocated over three runs.
// The minimum discards stray allocations by the runtime or other
// goroutines; a change in f's own allocation still shows in every run.
func allocBytes(f func()) uint64 {
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCodecGateN16 is the deterministic gate on the codec and the
// generator behind it, over one indexed k = 2, n = 16 broadcast plan.
// It pins the work the plan carries (calls and hops), what it encodes
// to (length and CRC-32), that a stream decode consumes exactly that
// many bytes, and ceilings on the heap bytes each layer allocates:
// generation alone, generation plus encode (Plan.WriteIndexedTo), and
// serial, two-worker and 2^20-worker parallel Plan.Verify. Each Verify
// must also run every call through the validator's clean-call kernel
// and none on its exact path, so a kernel that silently declines calls
// fails here rather than only slowing the benchmarks.
// The allocation ceilings were set from measurement (linux/amd64, Go
// 1.24) with about 15% headroom, except generation's, which is the
// storage bound ScheduleRounds documents: 1.3x its final round's round,
// arena and frontier storage. The race detector's instrumentation moves
// some of the validators' stack allocations to the heap, so the two
// Verify ceilings are checked only in builds without -race.
func TestCodecGateN16(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		k, n   = 2, 16
		source = 5

		planBytes = 313517
		planCRC   = 0x2c0da88c
		// Work counters: one call per vertex but the source, and the
		// edges those calls occupy (measured).
		planCalls = 1<<n - 1
		planHops  = 67287

		// Measured: 2,442,672 (generation included), 4,192,760 and
		// 5,963,904 bytes. A two-worker Verify decodes every round range
		// once (TestParallelVerifyReadsOnce), and a worker count far
		// beyond the range count must cost no more than two workers.
		encodeCeiling         = 2_810_000
		verifySerialCeiling   = 5_730_000
		verifyParallelCeiling = 6_860_000
	)
	// The final round of a k = 2 broadcast has 2^(n-1) calls: a Call
	// header, three arena words and two frontier words for each.
	const genCeiling = 13 * (1 << (n - 1)) * (24 + 8*(k+1) + 8*2) / 10

	cube, err := sparsehypercube.New(k, n)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: source})
	var buf bytes.Buffer
	if _, err := plan.WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	if len(data) != planBytes || crc32.ChecksumIEEE(data) != planCRC {
		t.Fatalf("plan encodes to %d bytes, CRC-32 %08x; want %d bytes, %08x",
			len(data), crc32.ChecksumIEEE(data), planBytes, uint32(planCRC))
	}
	d, err := schedio.NewDecoder(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for range d.Rounds() {
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Consumed() != planBytes {
		t.Fatalf("decoder consumed %d bytes of a %d-byte plan", d.Consumed(), planBytes)
	}

	inner, err := core.NewAuto(k, n)
	if err != nil {
		t.Fatal(err)
	}
	calls, hops := 0, 0
	for r := range inner.ScheduleRounds(source) {
		calls += len(r)
		for _, c := range r {
			hops += c.Length()
		}
	}
	if calls != planCalls || hops != planHops {
		t.Errorf("broadcast has %d calls over %d hops; want %d calls over %d hops", calls, hops, planCalls, planHops)
	}
	if got := allocBytes(func() {
		for range inner.ScheduleRounds(source) {
		}
	}); got > genCeiling {
		t.Errorf("ScheduleRounds allocated %d bytes, ceiling %d", got, genCeiling)
	}

	buf.Grow(len(data))
	if got := allocBytes(func() {
		buf.Reset()
		if _, err := plan.WriteIndexedTo(&buf); err != nil {
			t.Fatal(err)
		}
	}); got > encodeCeiling {
		t.Errorf("Plan.WriteIndexedTo allocated %d bytes, ceiling %d", got, encodeCeiling)
	}

	for _, c := range []struct {
		workers int
		ceiling uint64
	}{{1, verifySerialCeiling}, {2, verifyParallelCeiling}, {1 << 20, verifyParallelCeiling}} {
		p, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)),
			sparsehypercube.WithVerifyWorkers(c.workers))
		if err != nil {
			t.Fatal(err)
		}
		verify := func() {
			if rep := p.Verify(); !rep.Valid || !rep.MinimumTime {
				t.Fatalf("verify with %d workers: %+v", c.workers, rep)
			}
		}
		// Every call of the valid plan is clean, so the validator's
		// kernel must take all of them, and the exact path none.
		count := sparsehypercube.CountCallPaths()
		verify()
		if kernel, exact := count(); kernel != planCalls || exact != 0 {
			t.Errorf("Plan.Verify with %d workers: %d calls through the kernel and %d on the exact path; want %d and 0",
				c.workers, kernel, exact, planCalls)
		}
		if got := allocBytes(verify); got > c.ceiling && !raceEnabled {
			t.Errorf("Plan.Verify with %d workers allocated %d bytes, ceiling %d", c.workers, got, c.ceiling)
		}
	}
}
