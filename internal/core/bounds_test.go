package core

import (
	"slices"
	"testing"
)

func TestLowerBoundDegreeKnown(t *testing.T) {
	cases := []struct{ k, n, want int }{
		{1, 10, 10},
		{2, 15, 4},  // ceil(sqrt(15))
		{2, 16, 4},  // sqrt exact
		{2, 17, 5},  // wait: ceil(sqrt(17)) = 5
		{3, 27, 3},  // cube root exact
		{3, 28, 4},  // hmm: ceil(28^(1/3)) = 4
		{4, 16, 2},  // ceil(16^(1/4)) = 2
		{4, 17, 3},  // hmm: ceil(17^(1/4)) = 3
		{5, 6, 3},   // smallest Delta with 3*((D-1)^5 - 1) >= 6: D=3 gives 3*31=93 >= 6
		{5, 94, 4},  // D=3 gives 93 < 94, so 4
		{6, 189, 3}, // 3*(2^6-1) = 189
		{6, 190, 4},
	}
	for _, c := range cases {
		if got := LowerBoundDegree(c.k, c.n); got != c.want {
			t.Errorf("LowerBoundDegree(%d,%d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
}

func TestLowerBoundMonotoneInK(t *testing.T) {
	// Within each theorem's family the bound is non-increasing in k.
	// (Theorem 2's root bound for k <= 4 and Theorem 3's branching bound
	// for k >= 5 are separate results with different validity domains —
	// Theorem 3 additionally forces Delta >= 3 via the cycle argument,
	// which only applies for n > k >= 5 — so they are not compared.)
	for n := 4; n <= 64; n++ {
		prev := LowerBoundDegree(1, n)
		for k := 2; k <= 4; k++ {
			cur := LowerBoundDegree(k, n)
			if cur > prev {
				t.Errorf("Theorem-2 bound increased: k=%d n=%d: %d > %d", k, n, cur, prev)
			}
			prev = cur
		}
		prev = LowerBoundDegree(5, n)
		for k := 6; k <= 9; k++ {
			cur := LowerBoundDegree(k, n)
			if cur > prev {
				t.Errorf("Theorem-3 bound increased: k=%d n=%d: %d > %d", k, n, cur, prev)
			}
			prev = cur
		}
	}
	// Theorem 3's bound never drops below 3 on its domain n > k >= 5.
	for k := 5; k <= 8; k++ {
		for n := k + 1; n <= 64; n++ {
			if LowerBoundDegree(k, n) < 3 {
				t.Errorf("Theorem-3 bound below 3 at k=%d n=%d", k, n)
			}
		}
	}
}

// Theorem 5: the constructed G_{n,m*} meets Delta <= 2*ceil(sqrt(2n+4))-4
// for every n in the materialisable range and analytically beyond.
func TestTheorem5Bound(t *testing.T) {
	for n := 2; n <= MaxN; n++ {
		m := Theorem5M(n)
		d, err := DegreeForParams(BaseParams(n, m))
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", n, m, err)
		}
		bound := UpperBoundTheorem5(n)
		if d > bound {
			t.Errorf("n=%d: Delta(G_{n,%d}) = %d > Theorem-5 bound %d", n, m, d, bound)
		}
		if lb := LowerBoundDegree(2, n); d < lb {
			t.Errorf("n=%d: degree %d below the k=2 lower bound %d (impossible)", n, d, lb)
		}
	}
}

// Theorem 7: for k >= 3 the formula parameters meet
// Delta <= (2k-1)*ceil(n^(1/k)) - k wherever the formula vector is valid.
func TestTheorem7Bound(t *testing.T) {
	for k := 3; k <= 6; k++ {
		for n := k + 2; n <= MaxN; n++ {
			p, err := Theorem7Params(k, n)
			if err != nil {
				continue // degenerate small-n cases are covered by AutoParams
			}
			d, err := DegreeForParams(p)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			bound := UpperBoundTheorem7(k, n)
			if d > bound {
				t.Errorf("k=%d n=%d: Delta = %d > Theorem-7 bound %d (params %v)", k, n, d, bound, p)
			}
		}
	}
}

// AutoParams never does worse than the paper's formula choices.
func TestAutoParamsAtLeastAsGood(t *testing.T) {
	for n := 3; n <= MaxN; n++ {
		pa, err := AutoParams(2, n)
		if err != nil {
			t.Fatal(err)
		}
		da, err := DegreeForParams(pa)
		if err != nil {
			t.Fatal(err)
		}
		df, err := DegreeForParams(BaseParams(n, Theorem5M(n)))
		if err != nil {
			t.Fatal(err)
		}
		if da > df {
			t.Errorf("k=2 n=%d: auto %d worse than formula %d", n, da, df)
		}
	}
	for k := 3; k <= 5; k++ {
		for n := k + 2; n <= MaxN; n++ {
			pa, err := AutoParams(k, n)
			if err != nil {
				t.Fatal(err)
			}
			da, err := DegreeForParams(pa)
			if err != nil {
				t.Fatal(err)
			}
			if pf, err := Theorem7Params(k, n); err == nil {
				df, err2 := DegreeForParams(pf)
				if err2 != nil {
					t.Fatal(err2)
				}
				if da > df {
					t.Errorf("k=%d n=%d: auto %d worse than formula %d", k, n, da, df)
				}
			}
		}
	}
}

// Corollary 1: with k = ceil(log2 n), the auto construction achieves
// Delta <= 4*ceil(log2 log2 N) - 2.
func TestCorollary1Bound(t *testing.T) {
	for n := 4; n <= MaxN; n++ {
		k := Corollary1K(n)
		p, err := AutoParams(k, n)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DegreeForParams(p)
		if err != nil {
			t.Fatal(err)
		}
		if bound := UpperBoundCorollary1(n); d > bound {
			t.Errorf("n=%d (k=%d): Delta %d > Corollary-1 bound %d", n, k, d, bound)
		}
	}
}

func TestTheorem1K(t *testing.T) {
	// N = 22 = 3*2^3 - 2 -> h = 3 -> k = 6.
	if got := Theorem1K(22); got != 6 {
		t.Errorf("Theorem1K(22) = %d, want 6", got)
	}
	// N = 4 -> h = 1 -> k = 2.
	if got := Theorem1K(4); got != 2 {
		t.Errorf("Theorem1K(4) = %d, want 2", got)
	}
	// N = 10 -> h = 2 -> k = 4.
	if got := Theorem1K(10); got != 4 {
		t.Errorf("Theorem1K(10) = %d, want 4", got)
	}
	// N = 23 needs h = 4 (3*2^3-2 = 22 < 23).
	if got := Theorem1K(23); got != 8 {
		t.Errorf("Theorem1K(23) = %d, want 8", got)
	}
}

func TestTheorem5M(t *testing.T) {
	// n = 15: ceil(sqrt(34)) - 2 = 6 - 2 = 4.
	if got := Theorem5M(15); got != 4 {
		t.Errorf("Theorem5M(15) = %d, want 4", got)
	}
	if got := Theorem5M(1); got != 1 {
		t.Errorf("Theorem5M(1) = %d", got)
	}
	for n := 2; n <= 64; n++ {
		m := Theorem5M(n)
		if m < 1 || m >= n {
			t.Errorf("Theorem5M(%d) = %d out of range", n, m)
		}
	}
}

func TestAutoParamsDegenerate(t *testing.T) {
	// k >= n falls back to k' = n-1.
	p, err := AutoParams(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.K > 3 {
		t.Errorf("AutoParams(10,4) used k = %d > n-1", p.K)
	}
	if _, err := AutoParams(0, 5); err == nil {
		t.Error("expected error for k = 0")
	}
	p, err = AutoParams(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoParamsExact pins the exact search against brute force: for
// k <= 6 and n <= 24, AutoParams attains the least degree of every
// valid vector with at most k levels, found by enumerating them all.
// The scratch counterexamples of the coordinate descent it replaced,
// (3,12) and (3,18), are named.
func TestAutoParamsExact(t *testing.T) {
	const maxK, maxN = 6, 24
	for n := 1; n <= maxN; n++ {
		// least[j] is the least degree over vectors with j levels.
		least := make([]int, maxK+1)
		var walk func(dims []int)
		walk = func(dims []int) {
			p := Params{K: len(dims) + 1, Dims: append(slices.Clone(dims), n)}
			if d, err := DegreeForParams(p); err == nil && (least[p.K] == 0 || d < least[p.K]) {
				least[p.K] = d
			}
			if len(dims) == maxK-1 {
				return
			}
			lo := 1
			if len(dims) > 0 {
				lo = dims[len(dims)-1] + 1
			}
			for v := lo; v < n; v++ {
				walk(append(dims, v))
			}
		}
		walk(nil)
		for k := 1; k <= maxK; k++ {
			want := 0
			for j := 1; j <= k; j++ {
				if least[j] != 0 && (want == 0 || least[j] < want) {
					want = least[j]
				}
			}
			p, err := AutoParams(k, n)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			if d, err := DegreeForParams(p); err != nil || d != want {
				t.Errorf("k=%d n=%d: AutoParams %v has degree %d (%v), brute force %d", k, n, p.Dims, d, err, want)
			}
		}
	}
	for _, tc := range []struct {
		k, n int
		dims []int
	}{{3, 12, []int{1, 4, 12}}, {3, 18, []int{3, 10, 18}}} {
		if p, err := AutoParams(tc.k, tc.n); err != nil || !slices.Equal(p.Dims, tc.dims) {
			t.Errorf("AutoParams(%d,%d) = %v, %v; want %v", tc.k, tc.n, p.Dims, err, tc.dims)
		}
	}
}

// TestAutoParamsK2Stable: the k = 2 choices, optimal before the search
// was exact, are unchanged for every n <= 40 — n = 16's [4 16] is the
// cube behind TestCodecGateN16 and the fleet benchmark.
func TestAutoParamsK2Stable(t *testing.T) {
	want := []int{3: 1, 2, 1, 2, 3, 3, 3, 3, 3, 4, 3, 3, 3, 4, 3, 3, 3, 3, 3, 3, 3, 4, 3, 3, 3, 4, 3, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8} // n_1 by n
	for n := 3; n <= MaxN; n++ {
		p, err := AutoParams(2, n)
		if err != nil || !slices.Equal(p.Dims, []int{want[n], n}) {
			t.Errorf("AutoParams(2,%d) = %v, %v; want [%d %d]", n, p.Dims, err, want[n], n)
		}
	}
	if p, err := AutoParams(2, 2); err != nil || !slices.Equal(p.Dims, []int{2}) {
		t.Errorf("AutoParams(2,2) = %v, %v; want the hypercube [2]", p.Dims, err)
	}
}

// TestAutoParamsWithinBounds: for every k and n <= MaxN the chosen
// degree lies between the lower bound and the paper's Theorem 5 (k = 2)
// or Theorem 7 (3 <= k < n) guarantee, and AutoParams never panics —
// the Theorem 7 vector's powers overflow 64 bits from k = 15. The lower
// bound is checked from n = 4: on 8 vertices or fewer a cycle is a
// k-mlbg for k >= 4, below the Delta >= 3 of Theorem 3's clause.
func TestAutoParamsWithinBounds(t *testing.T) {
	for k := 1; k <= MaxN; k++ {
		for n := 1; n <= MaxN; n++ {
			p, err := AutoParams(k, n)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			d, err := DegreeForParams(p)
			if err != nil {
				t.Fatalf("k=%d n=%d: %v", k, n, err)
			}
			if lb := LowerBoundDegree(k, n); n >= 4 && d < lb {
				t.Errorf("k=%d n=%d: degree %d below the lower bound %d", k, n, d, lb)
			}
			switch {
			case k == 2 && d > UpperBoundTheorem5(n):
				t.Errorf("n=%d: degree %d above Theorem 5's %d", n, d, UpperBoundTheorem5(n))
			case k >= 3 && k < n && d > UpperBoundTheorem7(k, n):
				t.Errorf("k=%d n=%d: degree %d above Theorem 7's %d", k, n, d, UpperBoundTheorem7(k, n))
			}
		}
	}
}

// The note after Theorem 5: when m = lambda_m + 1... the text's example —
// with m such that lambda_m = m+1 (m = 2^p - 1) and n = m*(m+2), the
// construction gives Delta = 2m < 2*sqrt(n).
func TestTheorem5RemarkExactCase(t *testing.T) {
	for _, m := range []int{3, 7} {
		n := m * (m + 2)
		if n > MaxN {
			continue
		}
		d, err := DegreeForParams(BaseParams(n, m))
		if err != nil {
			t.Fatal(err)
		}
		if d != 2*m {
			t.Errorf("m=%d n=%d: Delta = %d, want exactly 2m = %d", m, n, d, 2*m)
		}
	}
}
