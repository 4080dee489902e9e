package core

import (
	"fmt"
	"math/bits"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/labeling"
)

// SparseHypercube is the graph produced by the paper's Construct
// procedure: the vertex set {0,1}^n with an implicit, O(1)-evaluable edge
// predicate. Dimensions are numbered 1..n from the least significant bit,
// matching the paper.
//
// Structure: dimension i <= n_1 edges are always present ("Rule 1" of
// Construct_BASE, applied recursively). A dimension i in (n_{l-1}, n_l]
// belongs to level l; its edge at vertex u is present iff the partition
// class that owns i equals the label g_l(u), where g_l reads only the bit
// window (n_{l-2}, n_{l-1}] of u ("Rule 2").
type SparseHypercube struct {
	params Params
	n      int
	levels []levelData // levels[i] describes level i+2
	// dimLevel[d] for d in 1..n: 1 for the base region, else the level.
	dimLevel []uint8
	// dimClass[d]: partition class owning dimension d (0 for base dims).
	dimClass []uint8
	// routes[d]: the flat call-path routing table of dimension d.
	routes []dimRoute
}

// levelData holds one level of the recursive construction.
type levelData struct {
	wlo, whi  int // label window (wlo, whi], 1-based dimensions
	lab       *labeling.Labeling
	classDims [][]int // classDims[c]: dimensions in class S_{c+1}, descending
}

// dimRoute caches every labeling lookup a dimension's call-path step
// needs in one flat table indexed by window value: table[x] is 0 when a
// vertex with window value x owns the dimension's edges directly, else
// the helper dimension (a window bit, Condition A) whose flip moves the
// vertex into the owning class. One shifted load replaces the
// level/class indirection, the label-equality test and the
// dominator-bit lookup of the call-path hot loop. Base dimensions have a
// nil table; dimensions of one class share one table.
type dimRoute struct {
	shift uint
	mask  uint64
	table []uint16
}

// LevelSpec optionally overrides the nondeterministic choices of one level
// (the paper's f* and partition of S). Zero value means "use defaults":
// labeling.Best for the window and a near-even contiguous partition
// assigning higher dimensions to lower-numbered classes (the paper's
// Example 3 style).
type LevelSpec struct {
	// Labeling must satisfy Condition A over the level's window size.
	Labeling *labeling.Labeling
	// Partition[c] lists the dimensions of class c+1. It must exactly
	// cover the level's governed range. Near-evenness is not enforced:
	// the paper requires it only for the degree bound, not correctness.
	Partition [][]int
}

// New runs Construct(k, (n, n_{k-1}, ..., n_1)) for p and optional
// per-level overrides (specs[i] configures level i+2).
func New(p Params, specs ...LevelSpec) (*SparseHypercube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(specs) > p.K-1 {
		return nil, fmt.Errorf("core: %d level specs for %d levels", len(specs), p.K-1)
	}
	n := p.N()
	s := &SparseHypercube{
		params:   p,
		n:        n,
		dimLevel: make([]uint8, n+1),
		dimClass: make([]uint8, n+1),
	}
	for d := 1; d <= p.Dims[0]; d++ {
		s.dimLevel[d] = 1
	}
	for l := 2; l <= p.K; l++ {
		var spec LevelSpec
		if idx := l - 2; idx < len(specs) {
			spec = specs[idx]
		}
		ld, err := buildLevel(p, l, spec)
		if err != nil {
			return nil, err
		}
		lo, hi := p.governedRange(l)
		for c, dims := range ld.classDims {
			for _, d := range dims {
				if d <= lo || d > hi {
					return nil, fmt.Errorf("core: level %d partition dimension %d outside (%d,%d]", l, d, lo, hi)
				}
				if s.dimLevel[d] != 0 {
					return nil, fmt.Errorf("core: level %d partition repeats dimension %d", l, d)
				}
				s.dimLevel[d] = uint8(l)
				s.dimClass[d] = uint8(c)
			}
		}
		for d := lo + 1; d <= hi; d++ {
			if s.dimLevel[d] == 0 {
				return nil, fmt.Errorf("core: level %d partition misses dimension %d", l, d)
			}
		}
		s.levels = append(s.levels, ld)
	}
	s.routes = buildRoutes(n, s.levels)
	return s, nil
}

// buildRoutes flattens the level labelings into per-dimension routing
// tables (see dimRoute). Dimensions in one partition class share one
// table, so the total size is sum over levels of 2^w * numLabels
// uint16s — windows are O(n^(1/k)) bits, a few KB at most.
func buildRoutes(n int, levels []levelData) []dimRoute {
	routes := make([]dimRoute, n+1)
	for li := range levels {
		ld := &levels[li]
		w := ld.whi - ld.wlo
		for c, dims := range ld.classDims {
			if len(dims) == 0 {
				continue
			}
			table := make([]uint16, 1<<uint(w))
			for x := uint64(0); x < 1<<uint(w); x++ {
				if b := ld.lab.DominatorBit(x, c); b >= 0 {
					// Window bit b is dimension wlo+b+1; 0 stays
					// "direct", which DominatorBit reports as -1
					// (label already c).
					table[x] = uint16(ld.wlo + b + 1)
				}
			}
			r := dimRoute{shift: uint(ld.wlo), mask: 1<<uint(w) - 1, table: table}
			for _, d := range dims {
				routes[d] = r
			}
		}
	}
	return routes
}

func buildLevel(p Params, l int, spec LevelSpec) (levelData, error) {
	w := p.windowSize(l)
	lab := spec.Labeling
	if lab == nil {
		var err error
		lab, err = labeling.Best(w)
		if err != nil {
			return levelData{}, err
		}
	}
	if lab.M() != w {
		return levelData{}, fmt.Errorf("core: level %d labeling is over Q_%d, want Q_%d", l, lab.M(), w)
	}
	lo, hi := p.governedRange(l)
	part := spec.Partition
	if part == nil {
		part = defaultPartition(lo, hi, lab.NumLabels())
	}
	if len(part) != lab.NumLabels() {
		return levelData{}, fmt.Errorf("core: level %d partition has %d classes, labeling has %d",
			l, len(part), lab.NumLabels())
	}
	return levelData{wlo: p.windowLow(l), whi: p.Dims[l-2], lab: lab, classDims: part}, nil
}

// defaultPartition splits (lo, hi] into numClasses near-even contiguous
// chunks, highest dimensions first (S_1 = {hi, hi-1, ...} as in the
// paper's Example 3). Classes may be empty when hi-lo < numClasses.
func defaultPartition(lo, hi, numClasses int) [][]int {
	total := hi - lo
	part := make([][]int, numClasses)
	d := hi
	for c := 0; c < numClasses; c++ {
		size := total / numClasses
		if c < total%numClasses {
			size++
		}
		for j := 0; j < size; j++ {
			part[c] = append(part[c], d)
			d--
		}
	}
	return part
}

// Params returns the construction parameters.
func (s *SparseHypercube) Params() Params { return s.params }

// N returns the cube dimension n.
func (s *SparseHypercube) N() int { return s.n }

// K returns the call-length bound the construction targets.
func (s *SparseHypercube) K() int { return s.params.K }

// Order returns 2^n.
func (s *SparseHypercube) Order() uint64 { return 1 << uint(s.n) }

// Level returns the level of dimension d: 1 for the always-present base
// region d <= n_1, otherwise l with d in (n_{l-1}, n_l].
func (s *SparseHypercube) Level(d int) int {
	s.checkDim(d)
	return int(s.dimLevel[d])
}

// DimClass returns the partition class (0-based) owning dimension d; -1
// for base dimensions.
func (s *SparseHypercube) DimClass(d int) int {
	s.checkDim(d)
	if s.dimLevel[d] == 1 {
		return -1
	}
	return int(s.dimClass[d])
}

func (s *SparseHypercube) checkDim(d int) {
	if d < 1 || d > s.n {
		panic(fmt.Sprintf("core: dimension %d out of [1,%d]", d, s.n))
	}
}

func (s *SparseHypercube) checkVertex(u uint64) {
	if u >= s.Order() {
		panic(fmt.Sprintf("core: vertex %d outside [0,2^%d)", u, s.n))
	}
}

// levelOf returns the levelData for level l >= 2.
func (s *SparseHypercube) levelOf(l int) *levelData { return &s.levels[l-2] }

// windowValue extracts u's bits in the level's label window.
func (ld *levelData) windowValue(u uint64) uint64 {
	return (u >> uint(ld.wlo)) & (1<<uint(ld.whi-ld.wlo) - 1)
}

// LabelAt returns g_l(u), the level-l label of vertex u.
func (s *SparseHypercube) LabelAt(l int, u uint64) int {
	if l < 2 || l > s.params.K {
		panic(fmt.Sprintf("core: level %d out of [2,%d]", l, s.params.K))
	}
	s.checkVertex(u)
	ld := s.levelOf(l)
	return ld.lab.Label(ld.windowValue(u))
}

// HasEdgeDim reports whether the dimension-d edge {u, u xor 2^(d-1)} is
// present.
func (s *SparseHypercube) HasEdgeDim(u uint64, d int) bool {
	s.checkDim(d)
	s.checkVertex(u)
	return s.hasEdgeDim(u, d)
}

// hasEdgeDim is HasEdgeDim without range checks, for validated-input hot
// paths (schedule generation evaluates it once per call-path hop).
func (s *SparseHypercube) hasEdgeDim(u uint64, d int) bool {
	l := s.dimLevel[d]
	if l == 1 {
		return true
	}
	ld := s.levelOf(int(l))
	return ld.lab.Label(ld.windowValue(u)) == int(s.dimClass[d])
}

// HasEdge implements linecomm.Network: u ~ v iff they differ in exactly
// one bit whose dimension edge is present at u.
func (s *SparseHypercube) HasEdge(u, v uint64) bool {
	if u >= s.Order() || v >= s.Order() {
		return false
	}
	x := u ^ v
	if x == 0 || x&(x-1) != 0 {
		return false
	}
	// Both vertices are in range, so x's one bit is a dimension of the
	// cube and the unchecked predicate is safe.
	return s.hasEdgeDim(u, bits.TrailingZeros64(x)+1)
}

// Neighbors returns the sorted adjacency of u.
func (s *SparseHypercube) Neighbors(u uint64) []uint64 {
	s.checkVertex(u)
	var out []uint64
	for d := 1; d <= s.n; d++ {
		if s.HasEdgeDim(u, d) {
			out = append(out, u^(1<<uint(d-1)))
		}
	}
	return out
}

// DegreeOf returns the degree of vertex u: n_1 plus, per level, the size
// of the class owning u's label.
func (s *SparseHypercube) DegreeOf(u uint64) int {
	s.checkVertex(u)
	d := s.params.Dims[0]
	for i := range s.levels {
		ld := &s.levels[i]
		d += len(ld.classDims[ld.lab.Label(ld.windowValue(u))])
	}
	return d
}

// MaxDegree returns the exact maximum degree: every label combination
// occurs (windows are disjoint bit ranges), so it is n_1 plus the largest
// class size per level — the Lemma 1 quantity.
func (s *SparseHypercube) MaxDegree() int {
	d := s.params.Dims[0]
	for i := range s.levels {
		max := 0
		for _, dims := range s.levels[i].classDims {
			if len(dims) > max {
				max = len(dims)
			}
		}
		d += max
	}
	return d
}

// MinDegree returns the exact minimum degree (n_1 plus smallest class
// sizes).
func (s *SparseHypercube) MinDegree() int {
	d := s.params.Dims[0]
	for i := range s.levels {
		min := -1
		for _, dims := range s.levels[i].classDims {
			if min < 0 || len(dims) < min {
				min = len(dims)
			}
		}
		if min > 0 {
			d += min
		}
	}
	return d
}

// NumEdges returns the exact edge count. Base dimensions contribute
// 2^(n-1) each; a level-l dimension owned by class c contributes one edge
// per vertex pair whose label is c: 2^(n-1) * |class c| / 2^w.
func (s *SparseHypercube) NumEdges() uint64 {
	total := uint64(s.params.Dims[0]) << uint(s.n-1)
	for i := range s.levels {
		ld := &s.levels[i]
		w := ld.whi - ld.wlo
		for c, dims := range ld.classDims {
			if len(dims) == 0 {
				continue
			}
			classSize := uint64(ld.lab.ClassSize(c))
			// edges per owned dimension = 2^(n-1) * classSize / 2^w
			total += uint64(len(dims)) * (classSize << uint(s.n-1-w))
		}
	}
	return total
}

// Graph materialises the construction as an explicit graph (vertex ids
// are the cube labels). Limited to n <= MaxMaterializeN.
func (s *SparseHypercube) Graph() (*graph.Graph, error) {
	if s.n > MaxMaterializeN {
		return nil, fmt.Errorf("core: refusing to materialise 2^%d vertices (max n = %d)", s.n, MaxMaterializeN)
	}
	order := int(s.Order())
	b := graph.NewBuilder(order)
	for u := 0; u < order; u++ {
		for d := 1; d <= s.n; d++ {
			v := u ^ 1<<uint(d-1)
			if u < v && s.HasEdgeDim(uint64(u), d) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Finish(), nil
}

// NewBase runs Construct_BASE(n, m) (paper §3).
func NewBase(n, m int, specs ...LevelSpec) (*SparseHypercube, error) {
	return New(BaseParams(n, m), specs...)
}

// NewRec runs Construct_REC(n, a, b) (paper §4.1, k = 3).
func NewRec(n, a, b int, specs ...LevelSpec) (*SparseHypercube, error) {
	return New(RecParams(n, a, b), specs...)
}

// NewHypercube returns the degenerate k = 1 construction: the full Q_n.
func NewHypercube(n int) (*SparseHypercube, error) {
	return New(HypercubeParams(n))
}

// NewAuto builds the construction for (k, n) with automatically chosen
// parameters (Theorem 5/7 seeds plus local search).
func NewAuto(k, n int) (*SparseHypercube, error) {
	p, err := AutoParams(k, n)
	if err != nil {
		return nil, err
	}
	return New(p)
}
