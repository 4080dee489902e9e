package analysis

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"time"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
)

// The map-vs-CSR curve: validating the same BFS-tree broadcast on the
// same general graph through the two engines that can handle arbitrary
// topologies — the hash-map reference and the slot-indexed CSR engine.
// The graphs are the non-hypercube families the CSR substrate exists
// for: random regular graphs and random k-trees. Every size checks the
// acceptance invariant (reflect.DeepEqual plus byte-identical JSON
// Reports) before recording the timing, so the curve can never
// silently compare diverging validators.

// CSRResult is the machine-readable trajectory of the csr experiment.
type CSRResult struct {
	Experiment string   `json:"experiment"`
	HostCPUs   int      `json:"host_cpus"`
	GoVersion  string   `json:"go_version"`
	Runs       []CSRRun `json:"runs"`
}

// CSRRun is one (family, size) measurement: best-of-repeats wall time
// for each engine in milliseconds, and the engine-agreement invariant.
type CSRRun struct {
	Family  string  `json:"family"`
	N       int     `json:"n"`
	Edges   int     `json:"edges"`
	Rounds  int     `json:"rounds"`
	MapMs   float64 `json:"map_ms"`
	CsrMs   float64 `json:"csr_ms"`
	Speedup float64 `json:"speedup"`
	Match   bool    `json:"match"`
}

// bareNet strips a linecomm.GraphNetwork down to the bare Network
// interface, hiding its slot numbering so engine selection falls back
// to the map engine — the experiment's baseline.
type bareNet struct {
	g linecomm.GraphNetwork
}

func (b bareNet) Order() uint64            { return b.g.Order() }
func (b bareNet) HasEdge(u, v uint64) bool { return b.g.HasEdge(u, v) }

// RunCSR measures map-engine vs CSR-engine validation of intact
// BFS-tree broadcasts on random regular (d = 8) and random k-tree
// (k = 8) graphs of 2^10 .. 2^maxLog vertices, best of repeats.
func RunCSR(maxLog, repeats int) (*Table, *CSRResult) {
	t := &Table{
		ID:    "EXP-CSR",
		Title: "General-graph validation: map engine vs CSR edge-slot engine",
		Headers: []string{"family", "N", "m", "rounds", "map ms", "csr ms",
			"speedup", "match"},
	}
	res := &CSRResult{
		Experiment: "csr",
		HostCPUs:   runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	for logN := 10; logN <= maxLog; logN += 2 {
		n := 1 << logN
		for _, fam := range []struct {
			name  string
			build func() *graph.Graph
		}{
			{"regular-8", func() *graph.Graph { return topo.RandomRegular(n, 8, int64(logN)) }},
			{"ktree-8", func() *graph.Graph { return topo.RandomKTree(n, 8, int64(logN)) }},
		} {
			g := fam.build()
			csrNet := linecomm.GraphNetwork{G: g}
			mapNet := bareNet{csrNet}
			// Materialise the rounds once so both engines time pure
			// validation of identical input, not schedule generation.
			var rounds []linecomm.Round
			for r := range linecomm.TreeRounds(g, 0) {
				rounds = append(rounds, linecomm.CloneRound(r))
			}
			replay := func(yield func(linecomm.Round) bool) {
				for _, r := range rounds {
					if !yield(r) {
						return
					}
				}
			}
			var mapRes, csrRes *linecomm.Result
			mapMs := timeBest(repeats, func() { mapRes = linecomm.ValidateStream(mapNet, 1, 0, replay) })
			csrMs := timeBest(repeats, func() { csrRes = linecomm.ValidateStream(csrNet, 1, 0, replay) })
			match := mapRes.Valid() && mapRes.Complete &&
				reflect.DeepEqual(mapRes, csrRes) && jsonEqual(mapRes, csrRes)
			run := CSRRun{
				Family: fam.name, N: n, Edges: g.NumEdges(), Rounds: len(rounds),
				MapMs: mapMs, CsrMs: csrMs, Speedup: mapMs / csrMs, Match: match,
			}
			res.Runs = append(res.Runs, run)
			t.AddRow(run.Family, run.N, run.Edges, run.Rounds, run.MapMs,
				run.CsrMs, run.Speedup, run.Match)
		}
	}
	t.Note("Same intact BFS-tree broadcast, same Network graph, same streamed rounds; the engines differ only in how per-round disjointness state is indexed (hash maps vs the graph's edge slots, its adjacency positions). match = DeepEqual + byte-identical JSON Reports.")
	return t, res
}

func timeBest(repeats int, fn func()) float64 {
	if repeats < 1 {
		repeats = 1
	}
	best := 0.0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		ms := time.Since(start).Seconds() * 1e3
		if i == 0 || ms < best {
			best = ms
		}
	}
	return best
}

func jsonEqual(a, b *linecomm.Result) bool {
	aj, err1 := json.Marshal(a)
	bj, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(aj, bj)
}

// WriteJSON writes the csr result as indented JSON.
func (c *CSRResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
