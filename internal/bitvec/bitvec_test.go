package bitvec

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if s.Len() != 130 || s.Any() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Set(0)
	s.Set(63)
	s.Set(64)
	s.Set(129)
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !s.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if s.Get(1) || s.Get(128) {
		t.Error("unexpected bit set")
	}
	s.Clear(63)
	if s.Get(63) || s.Count() != 3 {
		t.Error("Clear failed")
	}
	s.Flip(63)
	s.Flip(0)
	if !s.Get(63) || s.Get(0) || s.Count() != 3 {
		t.Error("Flip failed")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, c := range []struct {
		fn  func()
		msg string
	}{
		{func() { s.Get(10) }, "bitvec: index 10 out of range [0,10)"},
		{func() { s.Set(-1) }, "bitvec: index -1 out of range [0,10)"},
		{func() { s.Clear(11) }, "bitvec: index 11 out of range [0,10)"},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("expected panic")
				} else if got := fmt.Sprint(r); got != c.msg {
					t.Errorf("panic %q, want %q", got, c.msg)
				}
			}()
			c.fn()
		}()
	}
}

func TestFillResetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 200} {
		s := New(n)
		s.Fill()
		if !s.All() || s.Count() != n {
			t.Errorf("n=%d: Fill gave Count=%d", n, s.Count())
		}
		s.Reset()
		if !s.None() {
			t.Errorf("n=%d: Reset left bits", n)
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a, b := New(100), New(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	u := a.Clone()
	u.UnionWith(b)
	in := a.Clone()
	in.IntersectWith(b)
	// |A∪B| = |A| + |B| - |A∩B|
	if u.Count() != a.Count()+b.Count()-in.Count() {
		t.Error("inclusion-exclusion violated")
	}
	d := a.Clone()
	d.DifferenceWith(b)
	if d.Count() != a.Count()-in.Count() {
		t.Error("difference count wrong")
	}
	x := a.Clone()
	x.SymmetricDifferenceWith(b)
	if x.Count() != u.Count()-in.Count() {
		t.Error("symmetric difference count wrong")
	}
	if !u.ContainsAll(a) || !u.ContainsAll(b) || !a.ContainsAll(in) {
		t.Error("ContainsAll wrong")
	}
	if in.Count() > 0 != a.Intersects(b) {
		t.Error("Intersects wrong")
	}
}

func TestNextSetAndForEach(t *testing.T) {
	s := New(300)
	want := []int{0, 5, 64, 128, 199, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
	if s.NextSet(300) != -1 || s.NextSet(200) != 299 || s.NextSet(-5) != 0 {
		t.Error("NextSet boundaries wrong")
	}
	sl := s.Slice()
	for i := range want {
		if sl[i] != want[i] {
			t.Fatalf("Slice: got %v, want %v", sl, want)
		}
	}
}

func TestEqualClone(t *testing.T) {
	a := New(70)
	a.Set(3)
	a.Set(69)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Flip(10)
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	c := New(71)
	if a.Equal(c) {
		t.Error("different sizes reported equal")
	}
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Error("CopyFrom failed")
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if s.String() != "{}" {
		t.Errorf("empty String = %q", s.String())
	}
	s.Set(1)
	s.Set(7)
	if s.String() != "{1, 7}" {
		t.Errorf("String = %q", s.String())
	}
}

// Property: De Morgan over random operations — (A∪B) difference A equals
// B difference (A∩B).
func TestDeMorganProperty(t *testing.T) {
	f := func(seedA, seedB int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		a, b := randSet(seedA, n), randSet(seedB, n)
		left := a.Clone()
		left.UnionWith(b)
		left.DifferenceWith(a)
		right := b.Clone()
		ab := a.Clone()
		ab.IntersectWith(b)
		right.DifferenceWith(ab)
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Count equals the number of distinct indices inserted.
func TestCountProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		s := New(n)
		ref := map[int]bool{}
		for i := 0; i < 3*n; i++ {
			v := rng.Intn(n)
			s.Set(v)
			ref[v] = true
		}
		return s.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func randSet(seed int64, n int) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

func TestTestAndSet(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		if s.TestAndSet(i) {
			t.Fatalf("TestAndSet(%d) on clear bit reported set", i)
		}
		if !s.Get(i) {
			t.Fatalf("TestAndSet(%d) did not set the bit", i)
		}
		if !s.TestAndSet(i) {
			t.Fatalf("second TestAndSet(%d) reported clear", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", s.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TestAndSet out of range did not panic")
		}
	}()
	s.TestAndSet(130)
}

// TestUnionWithCount: the word-wide union-and-count agrees with a
// per-bit loop, on universes that end mid-word and on the empty one.
func TestUnionWithCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for seed := int64(0); seed < 4; seed++ {
			s, u := randSet(seed, n), randSet(seed+100, n)
			want, wantAdded := s.Clone(), 0
			for i := 0; i < n; i++ {
				if u.Get(i) && !want.TestAndSet(i) {
					wantAdded++
				}
			}
			if got := s.UnionWithCount(u); got != wantAdded || !s.Equal(want) {
				t.Fatalf("n=%d seed=%d: added %d (want %d), union %v (want %v)", n, seed, got, wantAdded, s, want)
			}
		}
	}
}
