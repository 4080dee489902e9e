package main

import (
	"fmt"
	"iter"
	"math/rand/v2"
	"reflect"
	"time"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
)

// graphPool is how many seeded sources each graph broadcasts from in one
// op. Broadcasts on the 8-tree differ in length by up to 1.7x from source
// to source, so one source per op made op time vary with the seed.
const graphPool = 4

// graphShape is one of the graph workload's two networks.
type graphShape struct {
	name string // metric suffix
	g    *graph.Graph
	// rounds returns the broadcast from source k.
	rounds func(k int) iter.Seq[linecomm.Round]
	// producer names the span of the rounds' producer side.
	producer string
	sources  []uint64
	ref      []*linecomm.Result
}

// graphWorkload is the graph-n16 workload: one op streams BFS-tree
// broadcasts from each of graphPool seeded sources into
// linecomm.ValidateStream on the CSR engine, on a random 8-regular graph
// and on a random 8-tree.
//
// The 8-tree's hubs give its BFS tree 15k to 26k rounds, and
// linecomm.TreeRounds rescans every informed vertex per round, so the
// library generates them in seconds at 2^16 vertices against about 10 ms
// for validating them. Streamed live, the generator would be the whole
// op and the validator invisible. So set-up materialises the 8-tree
// broadcasts with treeSchedule, which yields the same rounds in linear
// time, and each op replays them from memory. The traced run times the
// library's own TreeRounds on the 8-tree from the first source once and
// requires it to yield exactly those rounds. The regular graph's
// 36-round broadcasts are generated live by TreeRounds.
type graphWorkload struct {
	cnt    counters
	shapes []*graphShape
	build  time.Duration // graph construction, part of set-up
	// ktreeGen is the library's TreeRounds on the 8-tree, timed once by
	// the traced run.
	ktreeGen time.Duration
}

func newGraphWorkload(order int, seed int64) (*graphWorkload, error) {
	w := &graphWorkload{}
	t0 := time.Now()
	regular := topo.RandomRegular(order, 8, seed)
	ktree := topo.RandomKTree(order, 8, seed)
	w.build = time.Since(t0)

	rng := rand.New(rand.NewPCG(uint64(seed), 0x6772617068))
	reg := &graphShape{name: "regular8", g: regular, producer: "linecomm.TreeRounds.regular8"}
	for range graphPool {
		reg.sources = append(reg.sources, rng.Uint64N(uint64(order)))
	}
	reg.rounds = func(k int) iter.Seq[linecomm.Round] { return linecomm.TreeRounds(regular, reg.sources[k]) }

	kt := &graphShape{name: "ktree8", g: ktree, producer: "linecomm.Schedule.Stream.ktree8"}
	var scheds []*linecomm.Schedule
	for range graphPool {
		src := rng.Uint64N(uint64(order))
		kt.sources = append(kt.sources, src)
		scheds = append(scheds, treeSchedule(ktree, src))
	}
	kt.rounds = func(k int) iter.Seq[linecomm.Round] { return scheds[k].Stream() }

	w.shapes = []*graphShape{reg, kt}
	for _, s := range w.shapes {
		for k, src := range s.sources {
			res := linecomm.ValidateStream(linecomm.GraphNetwork{G: s.g}, 1, src, s.rounds(k))
			if !res.Valid() || !res.Complete {
				return nil, fmt.Errorf("%s reference from %d: %v (complete %t)", s.name, src, res.Err(), res.Complete)
			}
			s.ref = append(s.ref, res)
		}
	}
	return w, nil
}

func (w *graphWorkload) clients() int      { return 1 }
func (w *graphWorkload) counts() *counters { return &w.cnt }
func (w *graphWorkload) close()            {}

func (w *graphWorkload) op(_, _ int, tr *tracer, opID int) error {
	opSpan := -1
	if tr != nil {
		opSpan = tr.begin("op", -1, opID)
		defer tr.end(opSpan)
	}
	for _, s := range w.shapes {
		net := linecomm.GraphNetwork{G: s.g}
		for k, src := range s.sources {
			rounds := s.rounds(k)
			var res *linecomm.Result
			if tr == nil {
				res = linecomm.ValidateStream(net, 1, src, rounds)
			} else {
				id := tr.begin("linecomm.ValidateStream."+s.name, opSpan, opID)
				res = linecomm.ValidateStream(net, 1, src, split(tr, s.producer, id, opID, rounds,
					func(r linecomm.Round) {
						w.cnt.add("linecomm.rounds", 1)
						w.cnt.add("linecomm.hops", hops(r))
					}))
				tr.end(id)
			}
			if !reflect.DeepEqual(res, s.ref[k]) {
				return fmt.Errorf("%s from %d: result differs from the reference (%v)", s.name, src, res.Err())
			}
		}
	}
	return nil
}

func (w *graphWorkload) diag(int, *tracer) error { return nil }

// startTrace runs the library's TreeRounds on the 8-tree from the first
// source once, before the traced cycles, and requires the rounds the ops
// replay.
func (w *graphWorkload) startTrace() error {
	kt := w.shapes[1]
	var got []linecomm.Round
	t0 := time.Now()
	for r := range linecomm.TreeRounds(kt.g, kt.sources[0]) {
		got = append(got, linecomm.CloneRound(r))
	}
	w.ktreeGen = time.Since(t0)
	var want []linecomm.Round
	for r := range kt.rounds(0) {
		want = append(want, r)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: TreeRounds from %d yields other rounds than the replayed broadcast", kt.name, kt.sources[0])
	}
	return nil
}

// treeSchedule returns, materialised, exactly the rounds
// linecomm.TreeRounds(g, source) yields: the same BFS tree, children
// called in discovery order, callers in the order they were informed.
// Where TreeRounds rescans every informed vertex each round, this keeps
// only the vertices with children left to call, so it runs in time
// linear in the graph.
func treeSchedule(g *graph.Graph, source uint64) *linecomm.Schedule {
	n := g.NumVertices()
	sched := &linecomm.Schedule{Source: source}
	if source >= uint64(n) {
		return sched
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[source] = int32(source)
	order := append(make([]int32, 0, n), int32(source))
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, u := range g.Neighbors(int(v)) {
			if parent[u] < 0 {
				parent[u] = v
				order = append(order, u)
			}
		}
	}
	// children[off[v]:off[v+1]] are v's tree children in discovery order;
	// next[v] is the next one v calls.
	off := make([]int32, n+1)
	for _, v := range order[1:] {
		off[parent[v]+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	children := make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off[:n])
	for _, v := range order[1:] {
		p := parent[v]
		children[next[p]] = v
		next[p]++
	}
	copy(next, off[:n])
	var active []int32 // informed vertices with children left, in informed order
	if off[source] < off[source+1] {
		active = append(active, int32(source))
	}
	for len(active) > 0 {
		round := make(linecomm.Round, len(active))
		arena := make([]uint64, 2*len(active))
		kept := 0
		var fresh []int32
		for i, v := range active {
			u := children[next[v]]
			next[v]++
			arena[2*i], arena[2*i+1] = uint64(v), uint64(u)
			round[i] = linecomm.Call{Path: arena[2*i : 2*i+2 : 2*i+2]}
			if next[v] < off[v+1] {
				active[kept] = v
				kept++
			}
			if off[u] < off[u+1] {
				fresh = append(fresh, u)
			}
		}
		active = append(active[:kept], fresh...)
		sched.Rounds = append(sched.Rounds, round)
	}
	return sched
}

// mapOnly hides every method but Order and HasEdge, so the validator
// cannot see the edge slots and falls back to its map engine.
type mapOnly struct{ linecomm.Network }

// check runs each graph's first broadcast through the map engine and
// requires the CSR engine's Result exactly.
func (w *graphWorkload) check() error {
	for _, s := range w.shapes {
		res := linecomm.ValidateStream(mapOnly{linecomm.GraphNetwork{G: s.g}}, 1, s.sources[0], s.rounds(0))
		if !reflect.DeepEqual(res, s.ref[0]) {
			return fmt.Errorf("%s: map engine result differs from the CSR engine's", s.name)
		}
	}
	return nil
}

func (w *graphWorkload) layers(sum map[string]spanTotals, ops int, m map[string]float64) {
	ms := func(d time.Duration) float64 { return perOp(float64(d)/float64(time.Millisecond), ops) }
	var prod, cons time.Duration
	for _, s := range w.shapes {
		p, c := sum[s.producer].busy, sum["linecomm.ValidateStream."+s.name].self
		m["linecomm.tree_rounds_ms."+s.name] = ms(p)
		m["linecomm.csr_validate_ms."+s.name] = ms(c)
		prod += p
		cons += c
	}
	m["linecomm.tree_rounds_ms"] = ms(prod)
	m["linecomm.csr_validate_ms"] = ms(cons)
	m["graph.build_ms"] = float64(w.build) / float64(time.Millisecond)
	m["linecomm.tree_rounds_generate_ms.ktree8"] = float64(w.ktreeGen) / float64(time.Millisecond)
}
