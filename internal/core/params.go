// Package core implements the paper's contribution: sparse hypercubes —
// spanning subgraphs of the binary n-cube that remain minimal k-line
// broadcast graphs (broadcast from any source in exactly n rounds with
// calls of length at most k) while reducing the maximum degree from n to
// O(k * n^(1/k)).
//
// The three constructions of the paper are unified behind one parameter
// vector: Construct(k, (n, n_{k-1}, ..., n_1)) with
// 1 <= n_1 < n_2 < ... < n_{k-1} < n. Construct_BASE(n, m) is the K = 2
// case with Dims = [m, n]; Construct_REC(n, a, b) is K = 3 with
// Dims = [b, a, n]; K = 1 degenerates to the full hypercube Q_n (the
// classic store-and-forward minimal broadcast graph).
package core

import (
	"fmt"
	"math/big"
	"slices"

	"sparsehypercube/internal/intmath"
	"sparsehypercube/internal/labeling"
)

// MaxMaterializeN bounds explicit graph materialisation (2^22 vertices).
const MaxMaterializeN = 22

// MaxN bounds the dimension for implicit constructions. Schedules and
// degree formulas work at any n <= MaxN; only Graph() is further limited.
const MaxN = 40

// Params identifies a sparse hypercube construction.
type Params struct {
	// K is the call-length bound k >= 1.
	K int
	// Dims is the strictly increasing parameter vector
	// [n_1, n_2, ..., n_{K-1}, n] of length K; Dims[K-1] = n is the cube
	// dimension (order 2^n).
	Dims []int
}

// N returns the cube dimension n.
func (p Params) N() int { return p.Dims[len(p.Dims)-1] }

// Validate checks the paper's parameter constraints.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: k = %d < 1", p.K)
	}
	if len(p.Dims) != p.K {
		return fmt.Errorf("core: got %d parameters for k = %d (want exactly k)", len(p.Dims), p.K)
	}
	if p.Dims[0] < 1 {
		return fmt.Errorf("core: n_1 = %d < 1", p.Dims[0])
	}
	for i := 1; i < len(p.Dims); i++ {
		if p.Dims[i] <= p.Dims[i-1] {
			return fmt.Errorf("core: parameters not strictly increasing: %v", p.Dims)
		}
	}
	if n := p.N(); n > MaxN {
		return fmt.Errorf("core: n = %d exceeds supported maximum %d", n, MaxN)
	}
	// Each label window must fit the labeling package's table bound.
	for l := 2; l <= p.K; l++ {
		if w := p.windowSize(l); w > labeling.MaxWindow {
			return fmt.Errorf("core: level %d label window size %d exceeds %d", l, w, labeling.MaxWindow)
		}
	}
	return nil
}

// windowSize returns the label-window width of level l (2 <= l <= K):
// n_1 for l = 2, n_{l-1} - n_{l-2} for l >= 3.
func (p Params) windowSize(l int) int {
	if l == 2 {
		return p.Dims[0]
	}
	return p.Dims[l-2] - p.Dims[l-3]
}

// windowLow returns the exclusive lower bit index of level l's window.
func (p Params) windowLow(l int) int {
	if l == 2 {
		return 0
	}
	return p.Dims[l-3]
}

// governedRange returns the dimension range (lo, hi] whose edges level l
// controls: (n_{l-1}, n_l].
func (p Params) governedRange(l int) (lo, hi int) {
	return p.Dims[l-2], p.Dims[l-1]
}

// String renders the parameter vector in the paper's order
// (n, n_{k-1}, ..., n_1).
func (p Params) String() string {
	rev := make([]int, len(p.Dims))
	for i, d := range p.Dims {
		rev[len(p.Dims)-1-i] = d
	}
	return fmt.Sprintf("Construct(%d, %v)", p.K, rev)
}

// BaseParams returns the Construct_BASE(n, m) parameter vector (k = 2).
func BaseParams(n, m int) Params { return Params{K: 2, Dims: []int{m, n}} }

// RecParams returns the Construct_REC(n, a, b) parameter vector (k = 3).
func RecParams(n, a, b int) Params { return Params{K: 3, Dims: []int{b, a, n}} }

// HypercubeParams returns the degenerate k = 1 vector (full Q_n).
func HypercubeParams(n int) Params { return Params{K: 1, Dims: []int{n}} }

// lambdaConstructive returns the label count achieved by labeling.Best(w)
// without building the table: m'+1 for the largest m' = 2^p - 1 <= w.
func lambdaConstructive(w int) int {
	p := 1
	for (1<<uint(p+1))-1 <= w {
		p++
	}
	return 1<<uint(p) - 1 + 1
}

// DegreeForParams returns the exact maximum degree of the graph Construct
// builds for p with default (Best) labelings and near-even partitions,
// computed from the Lemma-1 formula without building the graph:
// Delta = n_1 + sum over levels of ceil((n_l - n_{l-1}) / lambda(window)).
func DegreeForParams(p Params) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	d := p.Dims[0]
	for l := 2; l <= p.K; l++ {
		lo, hi := p.governedRange(l)
		lam := lambdaConstructive(p.windowSize(l))
		d += intmath.CeilDiv(hi-lo, lam)
	}
	return d, nil
}

// Theorem5M returns the paper's k = 2 parameter choice
// m* = ceil(sqrt(2n+4)) - 2, clamped to [1, n-1].
func Theorem5M(n int) int {
	if n < 2 {
		return 1
	}
	m := int(intmath.CeilSqrt(uint64(2*n+4))) - 2
	if m < 1 {
		m = 1
	}
	if m > n-1 {
		m = n - 1
	}
	return m
}

// Theorem7Params returns the paper's k >= 3 parameter choice
// n_i = ceil((n-k)^(i/k)) + i - 1, repaired to strict monotonicity and
// clamped below n. The proof of Theorem 7 uses exactly this vector.
func Theorem7Params(k, n int) (Params, error) {
	if k < 3 || n <= k {
		return Params{}, fmt.Errorf("core: Theorem7Params requires 3 <= k < n, got k=%d n=%d", k, n)
	}
	m, kb := big.NewInt(int64(n-k)), big.NewInt(int64(k))
	dims := make([]int, k)
	for i := 1; i <= k-1; i++ {
		// ceil(m^(i/k)) is the least x with x^k >= m^i, exact in big
		// integers: m^i overflows 64 bits from k = 15 at n = 39.
		mi := new(big.Int).Exp(m, big.NewInt(int64(i)), nil)
		x := int64(1)
		for new(big.Int).Exp(big.NewInt(x), kb, nil).Cmp(mi) < 0 {
			x++
		}
		dims[i-1] = int(x) + i - 1
	}
	dims[k-1] = n
	// Repair: enforce strict increase and the n bound (degenerate only for
	// very small m).
	for i := 1; i < k; i++ {
		if dims[i] <= dims[i-1] {
			dims[i] = dims[i-1] + 1
		}
	}
	if dims[k-1] != n {
		return Params{}, fmt.Errorf("core: Theorem7Params(%d,%d): no room for %d levels below n", k, n, k)
	}
	p := Params{K: k, Dims: dims}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// AutoParams picks a parameter vector for (k, n) of the least maximum
// degree DegreeForParams admits. By Property 1 a construction for any
// k' <= k stays a valid k-mlbg, so the search covers every level count
// up to k, exactly (exactParams). Ties go to the fewest levels, then to
// the paper's own choice with that many levels (paperParams) or, when
// that misses the optimum, to the optimum a coordinate descent from it
// reaches (descend). The descent keeps the k = 2 choices stable: at
// n = 20 and n = 24 the optimal n_1 are 3 and 4 alike and it picks 3
// and 4 respectively, which no rule over the optimal set alone does.
func AutoParams(k, n int) (Params, error) {
	if k < 1 || n < 1 {
		return Params{}, fmt.Errorf("core: AutoParams requires k, n >= 1")
	}
	best := HypercubeParams(n)
	bestD, err := DegreeForParams(best)
	if err != nil {
		return Params{}, err
	}
	exact := exactParams(min(k, n-1), n)
	levels := 1
	for kk, cand := range exact {
		if d, err := DegreeForParams(cand); err == nil && d < bestD {
			bestD, levels = d, kk
		}
	}
	if levels == 1 {
		return best, nil
	}
	if paper, err := paperParams(levels, n); err == nil {
		if p, d := descend(paper); d == bestD {
			return p, nil
		}
	}
	return exact[levels], nil
}

// paperParams returns the paper's own choice with exactly k >= 2
// levels: Theorem 5's for k = 2, Theorem 7's beyond.
func paperParams(k, n int) (Params, error) {
	if k == 2 {
		return BaseParams(n, Theorem5M(n)), nil
	}
	return Theorem7Params(k, n)
}

// descend refines a valid vector by coordinate descent: each free
// parameter in turn moves by -2..+2 while that lowers the degree, for
// at most eight passes. It returns the vector and its degree.
func descend(p Params) (Params, int) {
	bestD, _ := DegreeForParams(p)
	for pass, improved := 0, true; pass < 8 && improved; pass++ {
		improved = false
		for i := 0; i < p.K-1; i++ {
			for _, delta := range []int{-2, -1, 1, 2} {
				cand := Params{K: p.K, Dims: slices.Clone(p.Dims)}
				cand.Dims[i] += delta
				if d, err := DegreeForParams(cand); err == nil && d < bestD {
					p, bestD, improved = cand, d, true
				}
			}
		}
	}
	return p, bestD
}

// exactParams returns, at index kk for every level count kk in [2, k]
// (k < n <= MaxN), a vector of least DegreeForParams with exactly kk
// levels; the other entries, and an entry no vector reaches, are zero
// Params. Each level's term of the degree reads only three consecutive
// entries (n_{l-2}, n_{l-1}, n_l), so the search is a dynamic program
// over the pair (n_j, n_j - n_{j-1}): the cheapest prefix ending in a
// pair extends independently of how it was reached. Every window is at
// most labeling.MaxWindow, as Validate requires.
func exactParams(k, n int) []Params {
	const maxW = labeling.MaxWindow
	out := make([]Params, k+1)
	if k < 2 {
		return out
	}
	// cost[j][b][w] is the least degree of a prefix n_1 < ... < n_j = b
	// with n_j - n_{j-1} = w (n_0 = 0), counting n_1 and the terms of
	// levels 2..j, and from[j][b][w] is the step n_{j-1} - n_{j-2}
	// before it; a zero cost is unreachable.
	cost := make([][][maxW + 1]int, k)
	from := make([][][maxW + 1]int, k)
	for j := 1; j < k; j++ {
		cost[j] = make([][maxW + 1]int, n)
		from[j] = make([][maxW + 1]int, n)
	}
	for b := 1; b < min(maxW+1, n); b++ {
		cost[1][b][b] = b
	}
	for j := 2; j < k; j++ {
		for a := 1; a < n; a++ {
			for w, c := range cost[j-1][a] {
				if c == 0 {
					continue
				}
				for b := a + 1; b < min(a+maxW+1, n); b++ {
					d := c + intmath.CeilDiv(b-a, lambdaConstructive(w))
					if s := &cost[j][b][b-a]; *s == 0 || d < *s {
						*s, from[j][b][b-a] = d, w
					}
				}
			}
		}
	}
	for kk := 2; kk <= k; kk++ {
		j := kk - 1
		bestD, bestB, bestW := 0, 0, 0
		for b := j; b < n; b++ {
			for w, c := range cost[j][b] {
				if c == 0 {
					continue
				}
				if d := c + intmath.CeilDiv(n-b, lambdaConstructive(w)); bestD == 0 || d < bestD {
					bestD, bestB, bestW = d, b, w
				}
			}
		}
		if bestD == 0 {
			continue
		}
		dims := make([]int, kk)
		dims[kk-1] = n
		for i, b, w := j, bestB, bestW; i >= 1; i-- {
			dims[i-1] = b
			b, w = b-w, from[i][b][w]
		}
		out[kk] = Params{K: kk, Dims: dims}
	}
	return out
}
