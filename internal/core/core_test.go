package core

import (
	"strings"
	"testing"
	"testing/quick"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/labeling"
)

// paperG42 builds G_{4,2} exactly as in the paper's Example 2 / Fig. 3:
// Example-1 labeling of Q_2 (f(00)=f(11)=c1, f(01)=f(10)=c2) and partition
// S_1 = {3}, S_2 = {4}.
func paperG42(t *testing.T) *SparseHypercube {
	t.Helper()
	s, err := NewBase(4, 2, LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{3}, {4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{K: 0, Dims: nil},
		{K: 2, Dims: []int{3}},
		{K: 2, Dims: []int{0, 4}},
		{K: 2, Dims: []int{4, 4}},
		{K: 3, Dims: []int{3, 2, 7}},
		{K: 2, Dims: []int{2, MaxN + 1}},
		{K: 2, Dims: []int{labeling.MaxWindow + 1, labeling.MaxWindow + 5}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %v should be invalid", p)
		}
	}
	good := []Params{
		{K: 1, Dims: []int{5}},
		{K: 2, Dims: []int{2, 4}},
		{K: 3, Dims: []int{2, 4, 7}},
		{K: 4, Dims: []int{1, 2, 3, 10}},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Params %v: %v", p, err)
		}
	}
}

func TestParamsString(t *testing.T) {
	p := RecParams(7, 4, 2)
	if got := p.String(); got != "Construct(3, [7 4 2])" {
		t.Errorf("String = %q", got)
	}
}

// Example 2 / Fig. 3: G_{4,2} has 16 vertices, is 3-regular (so 24 edges),
// and contains/omits the specific edges the text names.
func TestPaperExample2Fig3(t *testing.T) {
	s := paperG42(t)
	if s.Order() != 16 {
		t.Fatalf("order = %d", s.Order())
	}
	if s.MaxDegree() != 3 || s.MinDegree() != 3 {
		t.Fatalf("G_{4,2} degrees: max %d min %d, want 3-regular", s.MaxDegree(), s.MinDegree())
	}
	if s.NumEdges() != 24 {
		t.Fatalf("|E| = %d, want 24", s.NumEdges())
	}
	// g(0011) = g(0111) = g(1011) = g(1111) = c1 (label 0).
	for _, u := range []uint64{0b0011, 0b0111, 0b1011, 0b1111} {
		if s.LabelAt(2, u) != 0 {
			t.Errorf("g(%04b) = %d, want c1", u, s.LabelAt(2, u))
		}
	}
	// Vertex 0011 is connected with 0111 via the dimension-3 edge
	// (S_1 = {3}, g(0011) = c1).
	if !s.HasEdge(0b0011, 0b0111) {
		t.Error("edge {0011, 0111} missing")
	}
	// 0000 has label c1, so its dimension-4 edge (S_2) is absent:
	if s.HasEdge(0b0000, 0b1000) {
		t.Error("edge {0000, 1000} should be absent")
	}
	// Rule 1 edges (Fig. 2): dimensions 1 and 2 are always present.
	for u := uint64(0); u < 16; u++ {
		if !s.HasEdgeDim(u, 1) || !s.HasEdgeDim(u, 2) {
			t.Errorf("Rule-1 edge missing at %04b", u)
		}
	}
	// Full degree profile via materialisation.
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != 3 || g.MinDegree() != 3 || g.NumEdges() != 24 {
		t.Fatalf("materialised G_{4,2}: max %d min %d edges %d", g.MaxDegree(), g.MinDegree(), g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Fatal("G_{4,2} disconnected")
	}
}

// Example 5 / LABEL(7,4,2): g(x00y) = g(x11y) = c1 and g(x01y) = g(x10y) = c2
// for all x in {0,1}^3, y in {0,1}^2.
func TestPaperExample5Labeling(t *testing.T) {
	s, err := NewRec(7, 4, 2,
		LevelSpec{Labeling: labeling.PaperExample1Q2(), Partition: [][]int{{3}, {4}}},
		LevelSpec{Labeling: labeling.PaperExample1Q2()},
	)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 8; x++ {
		for y := uint64(0); y < 4; y++ {
			u00 := x<<4 | 0b00<<2 | y
			u11 := x<<4 | 0b11<<2 | y
			u01 := x<<4 | 0b01<<2 | y
			u10 := x<<4 | 0b10<<2 | y
			if s.LabelAt(3, u00) != 0 || s.LabelAt(3, u11) != 0 {
				t.Fatalf("g(%07b) or g(%07b) != c1", u00, u11)
			}
			if s.LabelAt(3, u01) != 1 || s.LabelAt(3, u10) != 1 {
				t.Fatalf("g(%07b) or g(%07b) != c2", u01, u10)
			}
		}
	}
}

// Example 6: in Construct_REC(7,4,2) with S_1 = {7,6}, S_2 = {5}, vertex
// 0000000 is adjacent to exactly 0000100, 0000010, 0000001 (Rule 1) and
// 1000000, 0100000 (Rule 2).
func TestPaperExample6Adjacency(t *testing.T) {
	s, err := NewRec(7, 4, 2,
		LevelSpec{Labeling: labeling.PaperExample1Q2(), Partition: [][]int{{3}, {4}}},
		LevelSpec{Labeling: labeling.PaperExample1Q2(), Partition: [][]int{{7, 6}, {5}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Neighbors(0)
	want := []uint64{0b0000001, 0b0000010, 0b0000100, 0b0100000, 0b1000000}
	if len(got) != len(want) {
		t.Fatalf("neighbors of 0000000 = %b, want %b", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors of 0000000 = %b, want %b", got, want)
		}
	}
	if s.DegreeOf(0) != 5 {
		t.Errorf("deg(0000000) = %d, want 5", s.DegreeOf(0))
	}
	// The default partition (high dims first) matches the paper's choice.
	s2, err := NewRec(7, 4, 2,
		LevelSpec{Labeling: labeling.PaperExample1Q2(), Partition: [][]int{{3}, {4}}},
		LevelSpec{Labeling: labeling.PaperExample1Q2()},
	)
	if err != nil {
		t.Fatal(err)
	}
	got2 := s2.Neighbors(0)
	if len(got2) != len(got) {
		t.Fatalf("default level-3 partition differs from paper: %b", got2)
	}
	for i := range got {
		if got2[i] != got[i] {
			t.Fatalf("default level-3 partition differs from paper: %b", got2)
		}
	}
}

// Example 3: G_{15,3} has maximum degree 6 = 3 + 3, less than half of
// Delta(Q_15) = 15.
func TestPaperExample3G153(t *testing.T) {
	s, err := NewBase(15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxDegree() != 6 {
		t.Fatalf("Delta(G_{15,3}) = %d, want 6", s.MaxDegree())
	}
	if s.MinDegree() != 6 {
		t.Fatalf("G_{15,3} should be 6-regular, min = %d", s.MinDegree())
	}
	// lambda_3 = 4 classes, |S| = 12, so every class has exactly 3 dims.
	d, err := DegreeForParams(BaseParams(15, 3))
	if err != nil || d != 6 {
		t.Fatalf("DegreeForParams = %d, %v", d, err)
	}
	// Vertex 0 (label c1, S_1 = {15,14,13}) is adjacent to the three
	// highest-dimension flips, as in the paper's walkthrough.
	for _, d := range []int{15, 14, 13} {
		if !s.HasEdgeDim(0, d) {
			t.Errorf("edge dim %d missing at 000...0", d)
		}
	}
	for _, d := range []int{12, 11, 10, 9, 8, 7, 6, 5, 4} {
		if s.HasEdgeDim(0, d) {
			t.Errorf("edge dim %d unexpectedly present at 000...0", d)
		}
	}
}

// Lemma 1: the exact degree formula matches materialised graphs over a
// sweep of (n, m).
func TestLemma1DegreeFormula(t *testing.T) {
	for n := 2; n <= 9; n++ {
		for m := 1; m < n; m++ {
			s, err := NewBase(n, m)
			if err != nil {
				t.Fatal(err)
			}
			g, err := s.Graph()
			if err != nil {
				t.Fatal(err)
			}
			if g.MaxDegree() != s.MaxDegree() {
				t.Errorf("n=%d m=%d: formula Delta %d, graph %d", n, m, s.MaxDegree(), g.MaxDegree())
			}
			if g.MinDegree() != s.MinDegree() {
				t.Errorf("n=%d m=%d: formula delta %d, graph %d", n, m, s.MinDegree(), g.MinDegree())
			}
			if uint64(g.NumEdges()) != s.NumEdges() {
				t.Errorf("n=%d m=%d: formula |E| %d, graph %d", n, m, s.NumEdges(), g.NumEdges())
			}
			if !graph.IsConnected(g) {
				t.Errorf("n=%d m=%d: disconnected", n, m)
			}
			// Lemma 1 inequality: Delta <= ceil((n-m)/lambda_m) + m.
			lam := lambdaConstructive(m)
			if s.MaxDegree() > (n-m+lam-1)/lam+m {
				t.Errorf("n=%d m=%d: Lemma 1 bound violated", n, m)
			}
		}
	}
}

// The per-vertex degree accessor agrees with materialised degrees.
func TestDegreeOfMatchesGraph(t *testing.T) {
	for _, p := range []Params{BaseParams(8, 3), RecParams(9, 4, 2), {K: 4, Dims: []int{2, 4, 6, 10}}} {
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumVertices(); u++ {
			if g.Degree(u) != s.DegreeOf(uint64(u)) {
				t.Fatalf("%v: deg(%d) formula %d, graph %d", p, u, s.DegreeOf(uint64(u)), g.Degree(u))
			}
		}
	}
}

// Edge predicate must be symmetric: HasEdgeDim(u, d) == HasEdgeDim(u^bit, d).
// This is the property making Rule 2 well-defined (labels ignore the
// flipped bit, which lives above the label window).
func TestEdgeSymmetryProperty(t *testing.T) {
	s, err := New(Params{K: 4, Dims: []int{2, 5, 8, 12}})
	if err != nil {
		t.Fatal(err)
	}
	f := func(uRaw uint16, dRaw uint8) bool {
		u := uint64(uRaw) & (1<<12 - 1)
		d := int(dRaw)%12 + 1
		v := u ^ 1<<uint(d-1)
		return s.HasEdgeDim(u, d) == s.HasEdgeDim(v, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHasEdgeRejectsNonNeighbors(t *testing.T) {
	s := paperG42(t)
	if s.HasEdge(0, 0) {
		t.Error("self edge")
	}
	if s.HasEdge(0b0000, 0b0011) {
		t.Error("distance-2 pair reported adjacent")
	}
	if s.HasEdge(0, 16) || s.HasEdge(16, 0) {
		t.Error("out-of-range vertex reported adjacent")
	}
}

// TestHasEdgeMatchesHasEdgeDim pins the pair predicate to the
// per-dimension one by brute force on every NewAuto (k <= 4) and
// NewBase cube up to n = 12: each dimension hop agrees in both
// directions, out-of-range pairs are rejected, and on cubes of at most
// 2^8 vertices no pair at Hamming distance other than one is adjacent.
func TestHasEdgeMatchesHasEdgeDim(t *testing.T) {
	var cubes []*SparseHypercube
	for n := 1; n <= 12; n++ {
		for k := 1; k <= 4; k++ {
			if s, err := NewAuto(k, n); err == nil {
				cubes = append(cubes, s)
			}
		}
		for m := 1; m < n; m++ {
			if s, err := NewBase(n, m); err == nil {
				cubes = append(cubes, s)
			}
		}
	}
	if len(cubes) < 24 {
		t.Fatalf("only %d cubes built", len(cubes))
	}
	for _, s := range cubes {
		order := s.Order()
		for u := uint64(0); u < order; u++ {
			for d := 1; d <= s.N(); d++ {
				v := u ^ 1<<uint(d-1)
				want := s.HasEdgeDim(u, d)
				if s.HasEdge(u, v) != want || s.HasEdge(v, u) != want {
					t.Fatalf("%v: HasEdge(%d,%d) disagrees with HasEdgeDim(%d,%d) = %v", s.Params(), u, v, u, d, want)
				}
			}
			if s.HasEdge(u, order) || s.HasEdge(order, u) || s.HasEdge(u, u|order) {
				t.Fatalf("%v: out-of-range neighbour of %d reported adjacent", s.Params(), u)
			}
			if order > 1<<8 {
				continue
			}
			for v := uint64(0); v < order; v++ {
				if x := u ^ v; (x == 0 || x&(x-1) != 0) && s.HasEdge(u, v) {
					t.Fatalf("%v: pair {%d,%d} at distance != 1 reported adjacent", s.Params(), u, v)
				}
			}
		}
	}
}

func TestHypercubeDegenerate(t *testing.T) {
	s, err := NewHypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxDegree() != 5 || s.MinDegree() != 5 || s.NumEdges() != 5*16 {
		t.Fatalf("Q_5 stats wrong: %d %d %d", s.MaxDegree(), s.MinDegree(), s.NumEdges())
	}
	for u := uint64(0); u < 32; u++ {
		for d := 1; d <= 5; d++ {
			if !s.HasEdgeDim(u, d) {
				t.Fatal("Q_5 missing an edge")
			}
		}
	}
}

func TestGraphMaterialiseLimit(t *testing.T) {
	s, err := New(Params{K: 2, Dims: []int{5, MaxMaterializeN + 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Graph(); err == nil {
		t.Error("expected materialisation refusal")
	}
}

func TestDescribe(t *testing.T) {
	s := paperG42(t)
	out := s.Describe()
	for _, want := range []string{"Construct(2, [4 2])", "base region: dimensions 1..2", "S_1 = {3}", "S_2 = {4}"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

func TestLevelSpecValidation(t *testing.T) {
	// Partition with wrong class count.
	if _, err := NewBase(4, 2, LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{3, 4}},
	}); err == nil {
		t.Error("expected class-count error")
	}
	// Partition with out-of-range dimension.
	if _, err := NewBase(4, 2, LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{2}, {4}},
	}); err == nil {
		t.Error("expected range error")
	}
	// Partition missing a dimension.
	if _, err := NewBase(5, 2, LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{3}, {4}},
	}); err == nil {
		t.Error("expected coverage error")
	}
	// Duplicate dimension.
	if _, err := NewBase(4, 2, LevelSpec{
		Labeling:  labeling.PaperExample1Q2(),
		Partition: [][]int{{3, 4}, {4}},
	}); err == nil {
		t.Error("expected duplicate error")
	}
	// Labeling over wrong window.
	if _, err := NewBase(5, 3, LevelSpec{Labeling: labeling.PaperExample1Q2()}); err == nil {
		t.Error("expected window mismatch error")
	}
	// Too many specs.
	if _, err := NewBase(4, 2, LevelSpec{}, LevelSpec{}); err == nil {
		t.Error("expected spec-count error")
	}
}
