package linecomm_test

import (
	"runtime"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// TestGossipStreamAllocs gates all-source gossip validation on the
// k = 2, n = 14 sparse hypercube by the bytes it allocates, schedule
// generation included. Each simulation worker owns one shard matrix of
// order rows at most GossipShardMaxWords wide, allocated once and never
// grown or reallocated per shard, so the total stays under a fixed
// 3 MiB (generation, the 32-bit exchange log, counts) plus that matrix
// per worker. A 64-bit exchange log, or a matrix allocated per shard,
// breaks the ceiling.
func TestGossipStreamAllocs(t *testing.T) {
	cube, err := core.NewAuto(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	const root = 5
	validate := func() *linecomm.GossipResult {
		return linecomm.ValidateGossipStream(cube, cube.K(), cube.ScheduleGossipRounds(root))
	}
	if res := validate(); !res.Complete || !res.Simulated {
		t.Fatalf("gossip from %d misjudged: %+v", root, res)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	validate()
	runtime.ReadMemStats(&after)

	matrix := cube.Order() * linecomm.GossipShardMaxWords * 8
	ceiling := 3<<20 + uint64(runtime.GOMAXPROCS(0))*matrix
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("validation allocated %d B at GOMAXPROCS %d, want <= %d B (3 MiB + %d B per worker)",
			got, runtime.GOMAXPROCS(0), ceiling, matrix)
	}
}
