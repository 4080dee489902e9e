package linecomm_test

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// n16Batches encodes the broadcast plan of the k = 2, n = 16 sparse
// hypercube from a seeded source as round batches of four rounds each,
// the shape a session producer streams.
func n16Batches(tb testing.TB) [][]byte {
	tb.Helper()
	cube, err := core.NewAuto(2, 16)
	if err != nil {
		tb.Fatal(err)
	}
	src := rand.New(rand.NewPCG(11, 16)).Uint64N(cube.Order())
	sched := cube.BroadcastSchedule(src)
	var batches [][]byte
	for lo := 0; lo < len(sched.Rounds); lo += 4 {
		var buf bytes.Buffer
		if err := linecomm.WriteRoundBatch(&buf, sched.Rounds[lo:min(lo+4, len(sched.Rounds))]); err != nil {
			tb.Fatal(err)
		}
		batches = append(batches, buf.Bytes())
	}
	return batches
}

// TestReadRoundBatchAllocs gates the session decode on a deterministic
// count: a canonical batch costs a fixed handful of allocations (the
// body buffer, the vertex, call and round slabs), independent of how
// many calls it carries.
func TestReadRoundBatchAllocs(t *testing.T) {
	batches := n16Batches(t)
	if len(batches) != 4 {
		t.Fatalf("%d batches, want 4", len(batches))
	}
	for i, b := range batches {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := linecomm.ReadRoundBatch(bytes.NewReader(b)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("batch %d (%d B): %.0f allocs per decode, want <= 8", i, len(b), allocs)
		}
	}
}

// TestReadRoundBatchTrailingBytesFree: the slabs are sized from the
// envelope alone, so bytes after it cost only their share of the body
// buffer. The n = 16 last batch followed by 1 MiB of '[', or of ',',
// allocates no more than the batch alone plus the extra body bytes
// (rounded up to a page); sized from the whole body, the '[' would cost
// a 24 MiB call slab.
func TestReadRoundBatchTrailingBytesFree(t *testing.T) {
	batches := n16Batches(t)
	last := batches[len(batches)-1]
	alone := decodeAllocBytes(t, last)
	for _, fill := range []byte{'[', ','} {
		body := append(bytes.Clone(last), bytes.Repeat([]byte{fill}, 1<<20)...)
		if got, limit := decodeAllocBytes(t, body), alone+1<<20+8192; got > limit {
			t.Errorf("batch + 1 MiB of %q: %d B allocated per decode, want <= %d (batch alone: %d B)", fill, got, limit, alone)
		}
	}
}

// decodeAllocBytes returns the bytes one ReadRoundBatch of data
// allocates, averaged over a few decodes.
func decodeAllocBytes(t *testing.T, data []byte) uint64 {
	t.Helper()
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := linecomm.ReadRoundBatch(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// BenchmarkReadRoundBatchN16 decodes the four batches of one n = 16
// plan per iteration.
func BenchmarkReadRoundBatchN16(b *testing.B) {
	batches := n16Batches(b)
	total := 0
	for _, batch := range batches {
		total += len(batch)
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	for b.Loop() {
		for _, batch := range batches {
			if _, err := linecomm.ReadRoundBatch(bytes.NewReader(batch)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
