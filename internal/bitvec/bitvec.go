// Package bitvec implements fixed-size bit sets tuned for the broadcast
// machinery: informed-vertex sets, dominating-set checks and label-class
// masks over vertex spaces of up to a few million elements.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a fixed-capacity bit set over the universe [0, Len()).
// The zero value is an empty set of capacity 0; use New to size one.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with universe size n.
func New(n int) *Set {
	if n < 0 {
		panic("bitvec: negative size")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size.
func (s *Set) Len() int { return s.n }

// check panics unless i is in the universe. It panics with an
// indexError value rather than a formatted string, which keeps check,
// and the one-bit accessors that call it, cheap enough to inline into
// hot loops; the message is built only if the panic is printed.
func (s *Set) check(i int) {
	if uint(i) >= uint(s.n) {
		panic(indexError{i, s.n})
	}
}

// indexError is the panic value of an out-of-universe index.
type indexError struct{ i, n int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitvec: index %d out of range [0,%d)", e.i, e.n)
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	s.check(i)
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i>>6] |= 1 << uint(i&63)
}

// TestAndSet sets bit i and reports whether it was already set. It is the
// one-bit analogue of a map insert-and-check, used by the streaming
// validator's disjointness sets.
func (s *Set) TestAndSet(i int) bool {
	s.check(i)
	mask := uint64(1) << uint(i&63)
	old := s.words[i>>6]&mask != 0
	s.words[i>>6] |= mask
	return old
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Flip toggles bit i.
func (s *Set) Flip(i int) {
	s.check(i)
	s.words[i>>6] ^= 1 << uint(i&63)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
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

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

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

func (s *Set) sameSize(t *Set) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitvec: size mismatch %d vs %d", s.n, t.n))
	}
}

// UnionWith sets s = s | t. The sets must have equal universe size.
func (s *Set) UnionWith(t *Set) {
	s.sameSize(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// UnionWithCount sets s = s | t and returns the number of bits t added
// to s, a popcount of the new bits word by word.
func (s *Set) UnionWithCount(t *Set) int {
	s.sameSize(t)
	added := 0
	for i, w := range t.words {
		added += bits.OnesCount64(w &^ s.words[i])
		s.words[i] |= w
	}
	return added
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

// ContainsAll reports whether t is a subset of s.
func (s *Set) ContainsAll(t *Set) bool {
	s.sameSize(t)
	for i := range s.words {
		if t.words[i]&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share a set bit.
func (s *Set) Intersects(t *Set) bool {
	s.sameSize(t)
	for i := range s.words {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
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

// CopyFrom overwrites s with the contents of t (equal sizes required).
func (s *Set) CopyFrom(t *Set) {
	s.sameSize(t)
	copy(s.words, t.words)
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
