// Benchmarks, one per experiment family of DESIGN.md's index. They
// measure the generators behind each reproduced figure/table (construction,
// scheme generation, validation, search) and report the headline
// combinatorial quantity of the experiment via b.ReportMetric so the bench
// log doubles as a summary of the reproduction.
package sparsehypercube_test

import (
	"bytes"
	"runtime"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/broadcast"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/hamming"
	"sparsehypercube/internal/labeling"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
	"sparsehypercube/internal/treecast"
)

// EXP-FIG1 / EXP-THM1: tri-tree scheme generation + validation, h = 7
// (N = 382, k = 14).
func BenchmarkFig1TriTree(b *testing.B) {
	h := 7
	g := topo.TriTree(h)
	net := linecomm.GraphNetwork{G: g}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := broadcast.TriTreeSchedule(h, i%g.NumVertices())
		if err != nil {
			b.Fatal(err)
		}
		res := linecomm.Validate(net, 2*h, sched)
		if !res.MinimumTime {
			b.Fatal("not minimum time")
		}
	}
	b.ReportMetric(float64(g.MaxDegree()), "maxdegree")
	b.ReportMetric(float64(broadcast.TriTreeMinimumRounds(h)), "rounds")
}

// EXP-FIG3: constructing and materialising G_{4,2}.
func BenchmarkFig3ConstructBase(b *testing.B) {
	var delta int
	for i := 0; i < b.N; i++ {
		s, err := core.NewBase(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			b.Fatal(err)
		}
		delta = g.MaxDegree()
	}
	b.ReportMetric(float64(delta), "maxdegree")
}

// EXP-FIG4: the Example-4 broadcast in G_{4,2}, generated and validated.
func BenchmarkFig4Broadcast(b *testing.B) {
	s, err := core.NewBase(4, 2, core.LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{3}, {4}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := s.BroadcastSchedule(0)
		if !linecomm.Validate(s, 2, sched).MinimumTime {
			b.Fatal("invalid")
		}
	}
}

// EXP-EX3: the paper's G_{15,3} — construction, full scheme from one
// source (32767 calls), validation.
func BenchmarkEx3G15_3(b *testing.B) {
	s, err := core.NewBase(15, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := s.BroadcastSchedule(0)
		res := linecomm.Validate(s, 2, sched)
		if !res.MinimumTime {
			b.Fatal("invalid")
		}
	}
	b.ReportMetric(float64(s.MaxDegree()), "maxdegree")
}

// EXP-THM4: Broadcast_2 schedule generation alone (n = 15, m = 3).
func BenchmarkThm4ScheduleGen(b *testing.B) {
	s, err := core.NewBase(15, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := s.BroadcastSchedule(uint64(i) & (s.Order() - 1))
		if len(sched.Rounds) != 15 {
			b.Fatal("wrong round count")
		}
	}
}

// EXP-THM4 (validator half): validating a fixed 32k-call schedule.
func BenchmarkThm4Validate(b *testing.B) {
	s, err := core.NewBase(15, 3)
	if err != nil {
		b.Fatal(err)
	}
	sched := s.BroadcastSchedule(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linecomm.Validate(s, 2, sched).MinimumTime {
			b.Fatal("invalid")
		}
	}
}

// EXP-THM4 at production scale: materialised schedule generation for
// 2^20 vertices, the baseline the streaming engine is measured against.
func BenchmarkThm4ScheduleGenN20(b *testing.B) {
	s, err := core.NewAuto(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := s.BroadcastSchedule(0)
		if len(sched.Rounds) != 20 {
			b.Fatal("wrong round count")
		}
	}
}

// EXP-THM4 streaming half: the same 2^20-vertex scheme through
// ScheduleRounds — round-at-a-time, arena-backed, parallel call paths.
func BenchmarkThm4StreamGenN20(b *testing.B) {
	s, err := core.NewAuto(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calls := 0
		for round := range s.ScheduleRounds(0) {
			calls += len(round)
		}
		if calls != 1<<20-1 {
			b.Fatal("wrong call count")
		}
	}
}

// EXP-THM4 validator at production scale: map-based Validate on a fixed
// 2^20-vertex materialised schedule.
func BenchmarkThm4ValidateN20(b *testing.B) {
	s, err := core.NewAuto(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	sched := s.BroadcastSchedule(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linecomm.Validate(s, 2, sched).MinimumTime {
			b.Fatal("invalid")
		}
	}
}

// EXP-THM4 streaming validator: the same fixed schedule through
// ValidateStream's CSR engine on the closed-form hypercube edge slots.
func BenchmarkThm4StreamValidateN20(b *testing.B) {
	s, err := core.NewAuto(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	sched := s.BroadcastSchedule(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !linecomm.ValidateStream(s, 2, sched.Source, sched.Stream()).MinimumTime {
			b.Fatal("invalid")
		}
	}
}

// EXP-THM4 replayed: one indexed n = 18 plan file (WriteIndexedTo)
// verified through ReadPlanAt, split into byte-balanced round ranges
// across at least two workers, and in one serial pass. The parallel
// sub-benchmark pins two or more workers, so the range-split path runs
// even on a one-core host. read-B/op counts the plan bytes each Verify
// reads, a deterministic figure: every range is decoded once, so both
// paths read about the plan's size (1.3 MB). exact-calls/op counts the
// calls the validator's clean-call kernel declined to its exact path:
// 0 on this valid plan.
func BenchmarkPlanVerifyIndexedN18(b *testing.B) {
	cube, err := sparsehypercube.New(2, 18)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 5}).WriteIndexedTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"parallel", max(2, runtime.GOMAXPROCS(0))},
		{"serial", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cr := &sparsehypercube.CountingReaderAt{R: bytes.NewReader(data)}
			plan, err := sparsehypercube.ReadPlanAt(cr, int64(len(data)),
				sparsehypercube.WithVerifyWorkers(bc.workers))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			cr.Swap()
			count := sparsehypercube.CountCallPaths()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := plan.Verify(); !rep.Valid || !rep.MinimumTime {
					b.Fatalf("invalid: %+v", rep)
				}
			}
			b.ReportMetric(float64(cr.Swap())/float64(b.N), "read-B/op")
			_, exact := count()
			b.ReportMetric(float64(exact)/float64(b.N), "exact-calls/op")
		})
	}
}

// BenchmarkPlanWriteIndexedN18 is the encode layer through the facade:
// generate the k = 2, n = 18 broadcast from source 5 and write it as an
// indexed plan (about 1.3 MB) into a reused buffer. BenchmarkDecodeN18
// in internal/schedio is the matching decode-only layer.
func BenchmarkPlanWriteIndexedN18(b *testing.B) {
	cube, err := sparsehypercube.New(2, 18)
	if err != nil {
		b.Fatal(err)
	}
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 5})
	var buf bytes.Buffer
	if _, err := plan.WriteIndexedTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := plan.WriteIndexedTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// EXP-STREAM: the fully streamed generate-and-validate pipeline at sizes
// where the schedule is never materialised (peak heap stays at the
// frontier, not the call total). Run with -benchtime=1x for a quick
// certification of the 4M- and 16M-vertex regimes.
func benchmarkStreamPipeline(b *testing.B, k, n int) {
	s, err := core.NewAuto(k, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := linecomm.ValidateStream(s, k, 0, s.ScheduleRounds(0))
		if !res.MinimumTime {
			b.Fatal("invalid")
		}
	}
	b.ReportMetric(float64(uint64(1)<<n-1), "calls")
}

func BenchmarkStreamPipelineN20(b *testing.B) { benchmarkStreamPipeline(b, 2, 20) }
func BenchmarkStreamPipelineN22(b *testing.B) { benchmarkStreamPipeline(b, 3, 22) }
func BenchmarkStreamPipelineN24(b *testing.B) { benchmarkStreamPipeline(b, 3, 24) }

// EXP-THM5: the k = 2 degree series over n <= 64 (parameter selection +
// exact degree formula; the numbers behind the Theorem-5 table).
func BenchmarkThm5Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 2; n <= core.MaxN; n++ {
			if _, err := core.DegreeForParams(core.BaseParams(n, core.Theorem5M(n))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EXP-THM6: Broadcast_k generation + validation for a 4-level
// construction on 2^14 vertices.
func BenchmarkThm6Schedule(b *testing.B) {
	s, err := core.New(core.Params{K: 4, Dims: []int{2, 4, 7, 14}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := s.BroadcastSchedule(0)
		res := linecomm.Validate(s, 4, sched)
		if !res.MinimumTime || res.MaxCallLength > 4 {
			b.Fatal("invalid")
		}
	}
	b.ReportMetric(float64(s.MaxDegree()), "maxdegree")
}

// EXP-THM7: parameter search for k = 3..6 at n = 40.
func BenchmarkThm7ParamSearch(b *testing.B) {
	var last int
	for i := 0; i < b.N; i++ {
		for k := 3; k <= 6; k++ {
			p, err := core.AutoParams(k, 40)
			if err != nil {
				b.Fatal(err)
			}
			d, err := core.DegreeForParams(p)
			if err != nil {
				b.Fatal(err)
			}
			last = d
		}
	}
	b.ReportMetric(float64(last), "delta_k6_n40")
}

// EXP-COR1: the Corollary-1 regime k = ceil(log2 n) across n <= 64.
func BenchmarkCor1Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 4; n <= core.MaxN; n++ {
			p, err := core.AutoParams(core.Corollary1K(n), n)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.DegreeForParams(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EXP-LEM2: building the Hamming-coset labeling of Q_15 (32768 labels +
// dominator table), the largest window the constructions use in practice.
func BenchmarkLem2Labeling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := labeling.Hamming(15); err != nil {
			b.Fatal(err)
		}
	}
}

// EXP-LEM2 (exact half): exhaustive lambda_4 search.
func BenchmarkLem2Exhaustive(b *testing.B) {
	var lam int
	for i := 0; i < b.N; i++ {
		lam, _ = labeling.MaxLabelsExhaustive(4)
	}
	b.ReportMetric(float64(lam), "lambda4")
}

// EXP-ABL: the exhaustive 2-mlbg certification of G_{4,2} (the inner loop
// of the ablation study).
func BenchmarkAblationChecker(b *testing.B) {
	s, err := core.NewBase(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := broadcast.IsKMLBG(g, 2)
		if err != nil || !ok {
			b.Fatal("checker failed")
		}
	}
}

// EXP-CONG: congestion analytics over a 2^12-vertex schedule.
func BenchmarkCongestionAnalysis(b *testing.B) {
	s, err := core.NewBase(12, 4)
	if err != nil {
		b.Fatal(err)
	}
	sched := s.BroadcastSchedule(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := linecomm.Congestion(sched)
		if st.MaxEdgeLoad < 1 {
			b.Fatal("no congestion data")
		}
	}
}

// EXP-ZOO: baseline store-and-forward broadcast on Q_10 (matching-driven).
func BenchmarkZooStoreForward(b *testing.B) {
	g := topo.Hypercube(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := broadcast.StoreForwardSchedule(g, 0)
		if err != nil || len(sched.Rounds) != 10 {
			b.Fatal("store-and-forward broken")
		}
	}
}

// Microbenchmark: the recursive call-path primitive at k = 4, n = 20
// (allocating form; the path allocation dominates the labeling lookups).
func BenchmarkCallPath(b *testing.B) {
	s, err := core.New(core.Params{K: 4, Dims: []int{2, 5, 10, 20}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := s.CallPath(uint64(i)&(s.Order()-1), 20)
		if len(p) < 2 {
			b.Fatal("bad path")
		}
	}
}

// Microbenchmark: allocation-free call-path construction for the
// highest-level dimension (d = 20, level 4) — the streaming generator's
// hot loop, and the cost the per-dimension flat route tables cut: one
// shifted load per level instead of the level/class indirection plus
// label and dominator-bit lookups (22-24 ns/op before the tables,
// 14-15 ns/op with them, 1-core Xeon 2.1 GHz).
func BenchmarkAppendCallPathLevel4(b *testing.B) {
	s, err := core.New(core.Params{K: 4, Dims: []int{2, 5, 10, 20}})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]uint64, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.AppendCallPath(buf[:0], uint64(i)&(s.Order()-1), 20)
	}
	if len(buf) < 2 {
		b.Fatal("bad path")
	}
}

// Microbenchmark: materialising a 2^16-vertex construction.
func BenchmarkMaterializeGraph(b *testing.B) {
	s, err := core.NewBase(16, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := s.Graph()
		if err != nil {
			b.Fatal(err)
		}
		if g.NumVertices() != 1<<16 {
			b.Fatal("wrong order")
		}
	}
}

// Microbenchmark: Hamming syndrome throughput (the labeling hot path).
func BenchmarkHammingSyndrome(b *testing.B) {
	c, err := hamming.New(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Syndrome(uint64(i) & (1<<31 - 1))
	}
}

// End-to-end through the public API: construct, broadcast, verify at
// k = 2, n = 12.
func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cube, err := sparsehypercube.New(2, 12)
		if err != nil {
			b.Fatal(err)
		}
		rep := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).Verify()
		if !rep.MinimumTime {
			b.Fatal("invalid")
		}
	}
}

// EXP-GOSSIP: gather-scatter gossip generation + full token simulation on
// 2^10 vertices.
func BenchmarkGossipGatherScatter(b *testing.B) {
	s, err := core.NewBase(10, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched := linecomm.FromBroadcast(s.BroadcastSchedule(0))
		res := linecomm.ValidateGossip(s, 2, sched)
		if !res.Complete {
			b.Fatal("gossip incomplete")
		}
	}
	b.ReportMetric(float64(2*s.N()), "rounds")
}

// EXP-GOSSIP-STREAM: streamed gather-scatter generation at n = 20, k = 2
// — the regime PR 1 established for broadcast. Rounds are rebuilt from
// the precomputed frontier; the doubled schedule is never materialised.
func BenchmarkGossipStreamGenN20(b *testing.B) {
	s, err := core.NewAuto(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calls := 0
		for r := range s.ScheduleGossipRounds(0) {
			calls += len(r)
		}
		if calls != 2*(int(s.Order())-1) {
			b.Fatalf("generated %d calls", calls)
		}
	}
	b.ReportMetric(float64(2*s.N()), "rounds")
}

// benchmarkGossipStreamPipeline generates and validates the streamed
// gossip scheme in one pass, two ways: /all gossips every vertex's token
// from hub 0, which the hub certificate decides; /sampled tracks 1024
// sampled source tokens with a hub outside the cube, so the token-shard
// simulation decides. exact-calls/op counts the exchanges gossip's
// clean-call kernel declined to the exact path; the schedule is valid,
// so any is a failure.
func benchmarkGossipStreamPipeline(b *testing.B, k, n int) {
	s, err := core.NewAuto(k, n)
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]uint64, 1024)
	for i := range sources {
		sources[i] = uint64(i) * (s.Order() / 1024)
	}
	run := func(hub uint64, sources []uint64) func(b *testing.B) {
		return func(b *testing.B) {
			count := sparsehypercube.CountCallPaths()
			for i := 0; i < b.N; i++ {
				res := linecomm.ValidateMultiSourceStream(s, k, hub, sources, s.ScheduleGossipRounds(0))
				if !res.Valid() || !res.Complete {
					b.Fatalf("streamed gossip pipeline failed: %+v", res)
				}
			}
			b.ReportMetric(float64(2*n), "rounds")
			_, exact := count()
			b.ReportMetric(float64(exact)/float64(b.N), "exact-calls/op")
			if exact != 0 {
				b.Fatalf("%d exchanges of the valid schedule took the exact path", exact)
			}
		}
	}
	b.Run("all", run(0, nil))
	b.Run("sampled", run(s.Order(), sources))
}

func BenchmarkGossipStreamPipelineN20(b *testing.B) { benchmarkGossipStreamPipeline(b, 2, 20) }
func BenchmarkGossipStreamPipelineN22(b *testing.B) { benchmarkGossipStreamPipeline(b, 2, 22) }

// EXP-DIAM: diameter of a materialised 2^12-vertex construction
// (footnote 1's quantity).
func BenchmarkDiameter(b *testing.B) {
	s, err := core.NewBase(12, 4)
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var d int
	for i := 0; i < b.N; i++ {
		d = graph.Diameter(g)
	}
	b.ReportMetric(float64(d), "diameter")
}

// EXP-PERMZOO: star-graph generation at order 720.
func BenchmarkPermZooStarGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := topo.StarGraph(6)
		if g.NumVertices() != 720 {
			b.Fatal("wrong order")
		}
	}
}

// EXP-TREE (§2, class G_{N-1}): generic tree line-broadcast planning on a
// 255-vertex complete binary tree.
func BenchmarkTreecastCBT7(b *testing.B) {
	g := topo.CompleteBinaryTree(7)
	p, err := treecast.New(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched, err := p.Schedule(i % g.NumVertices())
		if err != nil {
			b.Fatal(err)
		}
		if len(sched.Rounds) > p.MinimumRounds()+1 {
			b.Fatal("schedule too long")
		}
	}
}

// EXP-MBG (§2 class G_1): certifying the catalogued 16-vertex minimum
// broadcast graph (Q_4) with the exhaustive checker at k = 1.
func BenchmarkMbgCatalogueQ4(b *testing.B) {
	g, err := broadcast.MinimumBroadcastGraph(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := broadcast.IsKMLBG(g, 1)
		if err != nil || !ok {
			b.Fatal("catalogue check failed")
		}
	}
}
