// Package sparsehypercube is the public API of a full reproduction of
//
//	S. Fujita, A. M. Farley, "Sparse Hypercube — a minimal k-line
//	broadcast graph", IPPS/SPDP'99; Discrete Applied Mathematics 127
//	(2003) 431–446.
//
// A sparse hypercube is a spanning subgraph of the binary n-cube that is
// still a minimal k-line broadcast graph: from any originator, a broadcast
// completes in the information-theoretic minimum ceil(log2 N) = n rounds
// under the k-line communication model (per round, each informed vertex
// may call one vertex over a path of at most k edges; simultaneous calls
// must be edge-disjoint and receiver-disjoint), while the maximum degree
// drops from n to at most (2k-1)*ceil(n^(1/k)) - k.
//
// # Schemes and plans
//
// The paper's object is a scheme — a round-by-round k-line call plan —
// and the API is built around it. A Scheme (BroadcastScheme,
// GossipScheme, MultiSourceScheme, or your own) bound to a cube yields a
// Plan, the one handle for every way of consuming the scheme:
//
//	cube, err := sparsehypercube.New(2, 15)     // k = 2, N = 2^15
//	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0})
//
//	report := plan.Verify()       // streamed validation; MinimumTime == true
//	sched := plan.Materialize()   // snapshot, for small cubes
//	for round := range plan.Rounds() {
//		emit(round)               // streamed, O(frontier) memory
//	}
//
// Rounds and Verify stream: rounds are generated straight off the
// informed-set frontier (call paths built in parallel across a worker
// pool) and validated round-at-a-time on flat bit sets, so peak memory
// is O(frontier) — the widest single round — instead of the full
// schedule's O(N·n·k) words. That is what makes million-vertex (n >= 20)
// cubes practical.
//
// # Write once, verify many
//
// Plans serialise to a compact binary round format, written straight off
// the generator and replayed without materialising:
//
//	n, err := plan.WriteTo(f)                  // stream to disk
//	replay, err := sparsehypercube.ReadPlan(f2) // lazy, single-use
//	report := replay.Verify()                  // byte-faithful replay
//
// Produce a million-vertex schedule once, serve and re-verify it many
// times; a truncated or corrupted file can never verify (checksummed,
// canonical encoding).
//
// The heavy lifting lives in internal packages (construction, labelings,
// communication model, codec, baselines, experiment harness); this
// package keeps the downstream surface small and stable.
package sparsehypercube

import (
	"fmt"
	"iter"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// Cube is a sparse hypercube: an implicit graph on 2^n vertices.
type Cube struct {
	inner *core.SparseHypercube
}

// New constructs a k-mlbg on 2^n vertices with automatically chosen
// parameters (the paper's Theorem 5/7 choices refined by local search).
// k = 1 yields the full hypercube Q_n.
func New(k, n int) (*Cube, error) {
	inner, err := core.NewAuto(k, n)
	if err != nil {
		return nil, err
	}
	return &Cube{inner: inner}, nil
}

// NewWithDims constructs Construct(k, (n, n_{k-1}, ..., n_1)) with an
// explicit parameter vector dims = [n_1 < ... < n_{k-1} < n] of length k.
func NewWithDims(k int, dims []int) (*Cube, error) {
	inner, err := core.New(core.Params{K: k, Dims: append([]int(nil), dims...)})
	if err != nil {
		return nil, err
	}
	return &Cube{inner: inner}, nil
}

// K returns the call-length bound the cube was built for.
func (c *Cube) K() int { return c.inner.K() }

// N returns the cube dimension n (order 2^n).
func (c *Cube) N() int { return c.inner.N() }

// Order returns the number of vertices, 2^n.
func (c *Cube) Order() uint64 { return c.inner.Order() }

// Dims returns a copy of the parameter vector [n_1, ..., n_{k-1}, n].
func (c *Cube) Dims() []int {
	return append([]int(nil), c.inner.Params().Dims...)
}

// MaxDegree returns the exact maximum vertex degree.
func (c *Cube) MaxDegree() int { return c.inner.MaxDegree() }

// MinDegree returns the exact minimum vertex degree.
func (c *Cube) MinDegree() int { return c.inner.MinDegree() }

// NumEdges returns the exact number of edges.
func (c *Cube) NumEdges() uint64 { return c.inner.NumEdges() }

// Degree returns the degree of vertex u.
func (c *Cube) Degree(u uint64) int { return c.inner.DegreeOf(u) }

// HasEdge reports whether {u, v} is an edge.
func (c *Cube) HasEdge(u, v uint64) bool { return c.inner.HasEdge(u, v) }

// HasEdgeDim reports whether the edge along dimension d (1-based: it
// flips bit d-1) is present at vertex u. The streamed validators resolve
// a hop's edge slot through it; the planserver and distverify hand them
// a Cube.
func (c *Cube) HasEdgeDim(u uint64, d int) bool { return c.inner.HasEdgeDim(u, d) }

var _ linecomm.DimensionedNetwork = (*Cube)(nil)

// Neighbors returns the sorted adjacency of u.
func (c *Cube) Neighbors(u uint64) []uint64 { return c.inner.Neighbors(u) }

// Describe renders the level structure (windows, labelings, partitions).
func (c *Cube) Describe() string { return c.inner.Describe() }

// Call is one circuit-switched call: Path[0] is the caller, the last
// element the receiver, and the path occupies len(Path)-1 <= k edges.
// It is the validator's own call type, so its accessors are From, To,
// Endpoints and Length, and a round of Calls reaches the engine without
// a copy.
type Call = linecomm.Call

// Schedule is a materialised round-by-round call plan.
type Schedule struct {
	Source uint64
	Rounds [][]Call
}

// Stream returns the schedule's rounds as an iterator — the form
// consumed by RoundScheme and the streaming validator. Yielded rounds
// alias the schedule's storage. Unlike a plan's live round stream, it is
// reusable.
func (s *Schedule) Stream() iter.Seq[[]Call] { return toInner(s).Stream() }

// toInner views a public schedule as the internal one; the rounds are
// shared, not copied.
func toInner(s *Schedule) *linecomm.Schedule {
	return &linecomm.Schedule{Source: s.Source, Rounds: s.Rounds}
}

// Report summarises schedule verification against the k-line model.
// The JSON field names are the wire contract of the plan verification
// service (internal/planserver, `sparsecube serve`).
type Report struct {
	Valid         bool     `json:"valid"`
	Complete      bool     `json:"complete"`
	MinimumTime   bool     `json:"minimum_time"`
	Rounds        int      `json:"rounds"`
	MaxCallLength int      `json:"max_call_length"`
	Violations    []string `json:"violations,omitempty"`
}

// reportFrom converts a validation result to the public report.
func reportFrom(res *linecomm.Result, rounds int) Report {
	rep := Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        rounds,
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}

// FormatSchedule renders a schedule with n-bit vertex labels.
func (c *Cube) FormatSchedule(s *Schedule) string {
	return toInner(s).Format(c.N())
}

// MinimumRounds returns ceil(log2 N), the broadcast time lower bound for
// any N-vertex network.
func MinimumRounds(order uint64) int { return linecomm.MinimumRounds(order) }

// LowerBoundDegree returns the paper's degree lower bound for k-mlbgs on
// 2^n vertices (Theorems 2 and 3).
func LowerBoundDegree(k, n int) int { return core.LowerBoundDegree(k, n) }

// UpperBoundDegree returns the paper's constructive degree guarantee for
// a k-mlbg on 2^n vertices: Theorem 5 for k = 2, Theorem 7 for k >= 3,
// and n for k = 1 (the hypercube itself).
func UpperBoundDegree(k, n int) (int, error) {
	switch {
	case k < 1 || n < 1:
		return 0, fmt.Errorf("sparsehypercube: k, n must be >= 1")
	case k == 1:
		return n, nil
	case k == 2:
		return core.UpperBoundTheorem5(n), nil
	case n <= k:
		return 0, fmt.Errorf("sparsehypercube: Theorem 7 requires n > k (got k=%d, n=%d)", k, n)
	default:
		return core.UpperBoundTheorem7(k, n), nil
	}
}
