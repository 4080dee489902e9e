// Package bitvec implements fixed-size bit sets tuned for the broadcast
// machinery: informed-vertex sets, dominating-set checks and label-class
// masks over vertex spaces of up to a few million elements.
package bitvec

import (
	"fmt"
	"math/bits"
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

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
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

// CopyFrom overwrites s with the contents of t (equal sizes required).
func (s *Set) CopyFrom(t *Set) {
	s.sameSize(t)
	copy(s.words, t.words)
}

// Words returns the set's backing words: bit i is bit i%64 of word
// i/64. Writes through it change the set, and must leave every bit at
// or beyond Len clear. It is the word-level view a serialised bitmap
// is encoded from and decoded into.
func (s *Set) Words() []uint64 { return s.words }
