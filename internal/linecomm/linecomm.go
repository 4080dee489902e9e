// Package linecomm models the paper's k-line communication (Definition 1):
// communication proceeds in synchronous rounds; in each round an informed
// vertex may place at most one call along a path of at most k edges; calls
// placed in the same round must be pairwise edge-disjoint and must have
// pairwise distinct receivers. The package provides schedule data types, a
// strict validator (the machine-checkable form of Theorems 4 and 6), a
// simulator, and congestion metrics for the paper's §5 discussion.
package linecomm

import (
	"fmt"
	"iter"
	"strings"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/intmath"
)

// Call is one circuit-switched call: a simple path from the caller
// Path[0] to the receiver Path[len-1] occupying every edge along it.
type Call struct {
	Path []uint64
}

// From returns the calling vertex, or 0 for a call with an empty path.
// An empty path is never valid — Validate reports it as PathInvalid — but
// the accessor must not panic on the zero value. Use Endpoints to
// distinguish vertex 0 from a missing path.
func (c Call) From() uint64 {
	if len(c.Path) == 0 {
		return 0
	}
	return c.Path[0]
}

// To returns the receiving vertex, or 0 for a call with an empty path.
func (c Call) To() uint64 {
	if len(c.Path) == 0 {
		return 0
	}
	return c.Path[len(c.Path)-1]
}

// Endpoints returns the caller and receiver; ok is false when the path is
// empty and both endpoints are meaningless.
func (c Call) Endpoints() (from, to uint64, ok bool) {
	if len(c.Path) == 0 {
		return 0, 0, false
	}
	return c.Path[0], c.Path[len(c.Path)-1], true
}

// Length returns the number of edges occupied (0 for an empty path).
func (c Call) Length() int {
	if len(c.Path) == 0 {
		return 0
	}
	return len(c.Path) - 1
}

// Round is the set of calls placed in one time unit. It is an alias,
// so a []sparsehypercube.Call round (the public Call is this Call) is a
// Round without conversion.
type Round = []Call

// CloneRound deep-copies a round into freshly allocated storage (one
// backing array for all paths). Use it to retain a round obtained from a
// streaming iterator, whose yielded storage is reused between rounds.
func CloneRound(r Round) Round {
	total := 0
	for _, c := range r {
		total += len(c.Path)
	}
	buf := make([]uint64, 0, total)
	out := make(Round, len(r))
	for i, c := range r {
		buf = append(buf, c.Path...)
		out[i] = Call{Path: buf[len(buf)-len(c.Path) : len(buf) : len(buf)]}
	}
	return out
}

// Schedule is a broadcast schedule from Source.
type Schedule struct {
	Source uint64
	Rounds []Round
}

// Stream returns the schedule's rounds as an iterator, the form consumed
// by ValidateStream. Yielded rounds alias the schedule's storage.
func (s *Schedule) Stream() iter.Seq[Round] {
	return func(yield func(Round) bool) {
		for _, r := range s.Rounds {
			if !yield(r) {
				return
			}
		}
	}
}

// TotalCalls returns the number of calls across all rounds.
func (s *Schedule) TotalCalls() int {
	n := 0
	for _, r := range s.Rounds {
		n += len(r)
	}
	return n
}

// MaxCallLength returns the longest call in the schedule (0 if empty).
func (s *Schedule) MaxCallLength() int {
	max := 0
	for _, r := range s.Rounds {
		for _, c := range r {
			if c.Length() > max {
				max = c.Length()
			}
		}
	}
	return max
}

// Network is the minimal graph interface the validator needs. It is
// satisfied both by materialised graphs (GraphNetwork) and by implicit
// constructions such as the sparse hypercube, whose edge predicate is
// computable without storing adjacency.
type Network interface {
	// Order returns the number of vertices; vertex ids are [0, Order).
	Order() uint64
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v uint64) bool
}

// SlottedNetwork is a Network whose edges carry a slot numbering: an
// injection from edges into [0, NumEdgeSlots). Holes are allowed — the
// csrState engine sizes its sets by NumEdgeSlots but never scans the
// slot universe. Materialised CSR graphs number their edges for free,
// by adjacency position (graph.Graph.EdgeSlot: two slots per edge, one
// of them a hole), which puts an arbitrary graph on the streaming
// validators' one engine — every disjointness constraint indexed by
// slot id. A numbering (this one, or the closed form of a
// DimensionedNetwork) is what the streaming entry points require: they
// refuse a network without one, except that ValidateStream and
// ValidateStreamOpts fall back to the serial validator. The contract
// binds EdgeSlot to HasEdge: EdgeSlot(u, v) must report ok exactly when
// HasEdge(u, v), and distinct edges must map to distinct slots.
type SlottedNetwork interface {
	Network
	// NumEdgeSlots returns the size of the slot universe (at least the
	// number of edges).
	NumEdgeSlots() int
	// EdgeSlot maps the edge {u, v}, in either endpoint order, to its
	// slot; ok is false for non-edges.
	EdgeSlot(u, v uint64) (slot int, ok bool)
}

// GraphNetwork adapts graph.Graph to Network (and SlottedNetwork: the
// CSR arrays carry the edge-slot numbering).
type GraphNetwork struct{ G *graph.Graph }

// Order implements Network.
func (g GraphNetwork) Order() uint64 { return uint64(g.G.NumVertices()) }

// HasEdge implements Network.
func (g GraphNetwork) HasEdge(u, v uint64) bool { return g.G.HasEdge(int(u), int(v)) }

// NumEdgeSlots implements SlottedNetwork.
func (g GraphNetwork) NumEdgeSlots() int { return g.G.NumEdgeSlots() }

// EdgeSlot implements SlottedNetwork.
func (g GraphNetwork) EdgeSlot(u, v uint64) (int, bool) {
	order := uint64(g.G.NumVertices())
	if u >= order || v >= order {
		return 0, false
	}
	return g.G.EdgeSlot(int(u), int(v))
}

// ViolationKind classifies validator findings.
type ViolationKind int

// Violation kinds, in rough order of severity.
const (
	// CallerUninformed: the caller did not hold the message yet.
	CallerUninformed ViolationKind = iota
	// CallerDuplicate: a vertex placed more than one call in a round.
	CallerDuplicate
	// PathInvalid: empty path, repeated vertex, or a hop with no edge.
	PathInvalid
	// PathTooLong: the call exceeds the length bound k.
	PathTooLong
	// EdgeConflict: two calls in the same round share an edge.
	EdgeConflict
	// ReceiverConflict: two calls in the same round share a receiver.
	ReceiverConflict
	// ReceiverInformed: the receiver already held the message (legal in
	// the model but never useful in a minimum-time scheme, so flagged).
	ReceiverInformed
	// VertexOutOfRange: a path mentions a vertex outside [0, Order).
	VertexOutOfRange
	// SimulationCapExceeded: the instance is beyond what the validator
	// can check; the schedule was not judged invalid, it could not be
	// fully checked. The gossip validators report it when the knowledge
	// half (token tracking) exceeds their simulation caps, the streamed
	// one after every structural check. Every streaming validator
	// reports it alone, at round -1 and before consuming a round, for a
	// network its engine cannot index: an edge-slot numbering past the
	// size caps (2^31-bit sets, 2^26 counters under generalised
	// capacities; a cube at n >= 27 under any), a DimensionedNetwork
	// whose order exceeds its address width, or no numbering at all (see
	// SlottedNetwork).
	SimulationCapExceeded
)

func (k ViolationKind) String() string {
	switch k {
	case CallerUninformed:
		return "caller-uninformed"
	case CallerDuplicate:
		return "caller-duplicate"
	case PathInvalid:
		return "path-invalid"
	case PathTooLong:
		return "path-too-long"
	case EdgeConflict:
		return "edge-conflict"
	case ReceiverConflict:
		return "receiver-conflict"
	case ReceiverInformed:
		return "receiver-informed"
	case VertexOutOfRange:
		return "vertex-out-of-range"
	case SimulationCapExceeded:
		return "simulation-cap-exceeded"
	default:
		return fmt.Sprintf("violation(%d)", int(k))
	}
}

// violationKindNames inverts ViolationKind.String for the wire: the
// distributed range-verify envelope carries kinds by name, and a
// coordinator must reconstruct the exact ViolationKind (and so the
// exact Violation.String) from a worker's response.
var violationKindNames = map[string]ViolationKind{
	"caller-uninformed":       CallerUninformed,
	"caller-duplicate":        CallerDuplicate,
	"path-invalid":            PathInvalid,
	"path-too-long":           PathTooLong,
	"edge-conflict":           EdgeConflict,
	"receiver-conflict":       ReceiverConflict,
	"receiver-informed":       ReceiverInformed,
	"vertex-out-of-range":     VertexOutOfRange,
	"simulation-cap-exceeded": SimulationCapExceeded,
}

// ParseViolationKind inverts ViolationKind.String. Unknown names report
// ok false — a response carrying one must be rejected, not guessed at.
func ParseViolationKind(s string) (ViolationKind, bool) {
	k, ok := violationKindNames[s]
	return k, ok
}

// Violation is one validator finding.
type Violation struct {
	Round int // 0-based round index
	Call  int // index within the round, -1 when not call-specific
	Kind  ViolationKind
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d call %d: %s: %s", v.Round+1, v.Call, v.Kind, v.Msg)
}

// Result summarises a validation run.
type Result struct {
	Violations       []Violation
	InformedPerRound []uint64 // cumulative count after each round
	Informed         uint64   // final count
	Complete         bool     // every vertex informed
	MinimumTime      bool     // Complete in exactly ceil(log2 N) rounds
	MaxCallLength    int
}

// Valid reports whether no violations were found.
func (r *Result) Valid() bool { return len(r.Violations) == 0 }

// Err returns nil when valid, otherwise an error describing the first few
// violations.
func (r *Result) Err() error {
	if r.Valid() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violations:", len(r.Violations))
	for i, v := range r.Violations {
		if i == 5 {
			fmt.Fprintf(&b, " ... (%d more)", len(r.Violations)-5)
			break
		}
		fmt.Fprintf(&b, " [%s]", v)
	}
	return fmt.Errorf("linecomm: %s", b.String())
}

// edgeKey canonicalises an undirected edge.
type edgeKey struct{ u, v uint64 }

func mkEdge(a, b uint64) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{a, b}
}

// Validate checks s against the classic k-line model (Definition 1) on
// net and reports every violation together with completion statistics.
// It does not stop at the first problem, so tests can assert on specific
// kinds. See ValidateOpts for the generalised model.
func Validate(net Network, k int, s *Schedule) *Result {
	return ValidateOpts(net, k, s, DefaultOptions())
}

// MinimumRounds returns the information-theoretic broadcast lower bound
// ceil(log2 N) for an N-vertex network.
func MinimumRounds(order uint64) int { return intmath.CeilLog2(order) }
