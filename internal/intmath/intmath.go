// Package intmath provides exact integer arithmetic helpers used by the
// sparse-hypercube bound formulas: ceiling division, integer k-th roots,
// base-2 logarithms and saturating powers.
//
// All functions are exact: no floating point is involved, so bound tables
// generated from them are reproducible across platforms. Arguments are
// validated with panics because every call site passes compile-time-ish
// constants (paper parameters); a panic indicates a programming error, not
// an input error.
package intmath

import "math/bits"

// CeilDiv returns ceil(a/b) for a >= 0, b > 0.
func CeilDiv(a, b int) int {
	if a < 0 || b <= 0 {
		panic("intmath: CeilDiv requires a >= 0, b > 0")
	}
	return (a + b - 1) / b
}

// FloorLog2 returns floor(log2 x) for x > 0.
func FloorLog2(x uint64) int {
	if x == 0 {
		panic("intmath: FloorLog2(0)")
	}
	return 63 - bits.LeadingZeros64(x)
}

// CeilLog2 returns ceil(log2 x) for x > 0. CeilLog2(1) == 0.
func CeilLog2(x uint64) int {
	if x == 0 {
		panic("intmath: CeilLog2(0)")
	}
	l := FloorLog2(x)
	if x == 1<<uint(l) {
		return l
	}
	return l + 1
}

// Pow returns base**exp, panicking on overflow of uint64.
func Pow(base uint64, exp int) uint64 {
	if exp < 0 {
		panic("intmath: Pow with negative exponent")
	}
	result := uint64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && result > ^uint64(0)/base {
			panic("intmath: Pow overflow")
		}
		result *= base
	}
	return result
}

// powGreater reports whether base**exp > x, saturating instead of
// overflowing.
func powGreater(base uint64, exp int, x uint64) bool {
	result := uint64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && result > ^uint64(0)/base {
			return true // true product exceeds MaxUint64 >= x
		}
		result *= base
	}
	return result > x
}

// FloorRoot returns floor(x^(1/k)) for x >= 0, k >= 1, computed exactly by
// binary search on the monotone predicate r**k <= x.
func FloorRoot(x uint64, k int) uint64 {
	if k < 1 {
		panic("intmath: FloorRoot requires k >= 1")
	}
	if k == 1 || x < 2 {
		return x
	}
	lo, hi := uint64(1), x
	// Tighten hi: floor root of x is at most 2^(floor(log2 x)/k + 1).
	if b := FloorLog2(x)/k + 1; b < 63 {
		hi = 1 << uint(b)
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if powGreater(mid, k, x) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo
}

// CeilRoot returns ceil(x^(1/k)) for x >= 0, k >= 1.
func CeilRoot(x uint64, k int) uint64 {
	r := FloorRoot(x, k)
	if Pow(r, k) == x {
		return r
	}
	return r + 1
}

// CeilSqrt returns ceil(sqrt(x)).
func CeilSqrt(x uint64) uint64 { return CeilRoot(x, 2) }
