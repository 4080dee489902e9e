// Package hamming implements binary Hamming codes Ham(2^p - 1) over GF(2).
// The paper's Lemma 2 builds optimal Condition-A labelings of Q_m from the
// coset structure of these codes: each of the 2^p syndrome classes of
// Ham(2^p - 1) is a perfect dominating set of the (2^p - 1)-cube.
//
// Words are uint64 bit masks; bit i-1 of the mask is code position i
// (positions are 1-based, as is conventional for Hamming codes, so that the
// parity-check column of position i is the binary representation of i).
package hamming

import (
	"fmt"
	"math/bits"
)

// Code is the binary Hamming code with parameter p: length m = 2^p - 1,
// dimension m - p, minimum distance 3, perfect 1-error-correcting.
type Code struct {
	p int
	m int
}

// New returns Ham(2^p - 1). p must be in [1, 6] (length <= 63).
// p = 1 is the degenerate length-1 code {0}.
func New(p int) (*Code, error) {
	if p < 1 || p > 6 {
		return nil, fmt.Errorf("hamming: p = %d out of supported range [1,6]", p)
	}
	return &Code{p: p, m: 1<<uint(p) - 1}, nil
}

// Syndrome returns the syndrome of word x: the XOR of the (1-based)
// positions of its set bits. Syndrome 0 means x is a codeword; otherwise
// the syndrome is the position of the single correctable error.
func (c *Code) Syndrome(x uint64) int {
	if x>>uint(c.m) != 0 {
		panic(fmt.Sprintf("hamming: word %#x exceeds length %d", x, c.m))
	}
	s := 0
	for t := x; t != 0; t &= t - 1 {
		pos := bits.TrailingZeros64(t) + 1
		s ^= pos
	}
	return s
}
