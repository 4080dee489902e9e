package linecomm_test

import (
	"runtime"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestGossipStreamAllocs gates the token simulation by the bytes
// all-source validation allocates on Q_14's dimension exchange, a
// complete gossip with no hub: the certificate rejects it, so the
// simulation decides. Each simulation worker owns one shard matrix of
// order rows at most GossipShardMaxWords wide, allocated once and never
// grown or reallocated per shard, so the total stays under a fixed
// 3 MiB (the 32-bit exchange log, counts) plus that matrix per worker.
// A 64-bit exchange log, or a matrix allocated per shard, breaks the
// ceiling.
func TestGossipStreamAllocs(t *testing.T) {
	cube, err := core.NewHypercube(14)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := linecomm.HypercubeExchange(14)
	if err != nil {
		t.Fatal(err)
	}
	sims := linecomm.CountSimulations(t)
	validate := func() *linecomm.GossipResult {
		return linecomm.ValidateGossipStream(cube, 1, sched.Source, sched.Stream())
	}
	if res := validate(); !res.Complete || !res.Simulated || *sims != 1 {
		t.Fatalf("dimension exchange misjudged (%d simulations): %+v", *sims, res)
	}

	matrix := cube.Order() * linecomm.GossipShardMaxWords * 8
	ceiling := 3<<20 + uint64(runtime.GOMAXPROCS(0))*matrix
	if got := allocBytes(func() { validate() }); got > ceiling {
		t.Fatalf("validation allocated %d B at GOMAXPROCS %d, want <= %d B (3 MiB + %d B per worker)",
			got, runtime.GOMAXPROCS(0), ceiling, matrix)
	}
}

// TestGossipCertifiedAllocs gates the certified path: all-source gossip
// on the k = 2, n = 14 sparse hypercube, schedule generation included,
// decided by the hub certificate. It allocates no token matrix, so the
// ceiling has no per-worker term; it was set from measurement
// (1,325,280 B at GOMAXPROCS 2, linux/amd64, Go 1.24; 1,336,144 B under
// -race) with about 15% headroom. A run that falls back to the
// simulation adds a 1 MiB matrix per worker and breaks it. Every one of
// the 2(2^14 - 1) exchanges must pass gossip's clean-call kernel: a
// valid schedule sends none to the exact path.
func TestGossipCertifiedAllocs(t *testing.T) {
	cube, err := core.NewAuto(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	const (
		root    = 5
		ceiling = 1490 << 10
	)
	validate := func() *linecomm.GossipResult {
		return linecomm.ValidateGossipStream(cube, cube.K(), root, cube.ScheduleGossipRounds(root))
	}
	kernel0, exact0 := linecomm.CallPaths()
	if res := validate(); !res.Complete || !res.Simulated {
		t.Fatalf("gossip from %d misjudged: %+v", root, res)
	}
	kernel1, exact1 := linecomm.CallPaths()
	if kernel, exact := kernel1-kernel0, exact1-exact0; kernel != 2*(int64(cube.Order())-1) || exact != 0 {
		t.Fatalf("%d exchanges took the kernel and %d the exact path, want %d and 0",
			kernel, exact, 2*(cube.Order()-1))
	}
	if got := allocBytes(func() { validate() }); got > ceiling {
		t.Fatalf("certified validation allocated %d B at GOMAXPROCS %d, want <= %d B",
			got, runtime.GOMAXPROCS(0), ceiling)
	}
}
