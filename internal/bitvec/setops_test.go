package bitvec

// The Set operations below are exercised only by this package's tests;
// no production code needs them, so they live beside the tests.

import (
	"fmt"
	"math/bits"
	"strings"
)

// Flip toggles bit i.
func (s *Set) Flip(i int) {
	s.check(i)
	s.words[i>>6] ^= 1 << uint(i&63)
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// All reports whether every bit in the universe is set.
func (s *Set) All() bool { return s.Count() == s.n }

// None reports whether the set is empty.
func (s *Set) None() bool { return !s.Any() }

// Fill sets all bits in the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// trim zeroes the tail bits beyond the universe size.
func (s *Set) trim() {
	if r := uint(s.n & 63); r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << r) - 1
	}
}

// IntersectWith sets s = s & t.
func (s *Set) IntersectWith(t *Set) {
	s.sameSize(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DifferenceWith sets s = s &^ t.
func (s *Set) DifferenceWith(t *Set) {
	s.sameSize(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// SymmetricDifferenceWith sets s = s ^ t.
func (s *Set) SymmetricDifferenceWith(t *Set) {
	s.sameSize(t)
	for i := range s.words {
		s.words[i] ^= t.words[i]
	}
}

// Equal reports whether s and t contain the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i >> 6
	if word := s.words[w] >> uint(i&63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(s.words); w++ {
		if s.words[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s.words[w])
		}
	}
	return -1
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		fn(i)
	}
}

// Slice returns the indices of the set bits in increasing order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as {i, j, ...}.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
