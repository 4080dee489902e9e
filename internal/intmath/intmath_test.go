package intmath

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2},
		{10, 3, 4}, {9, 3, 3}, {100, 7, 15}, {6, 7, 1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(-1,1) did not panic")
		}
	}()
	CeilDiv(-1, 1)
}

func TestFloorLog2(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1023, 9}, {1024, 10},
		{1 << 40, 40}, {math.MaxUint64, 63},
	}
	for _, c := range cases {
		if got := FloorLog2(c.x); got != c.want {
			t.Errorf("FloorLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{22, 5}, // tri-tree h=3 order: ceil(log2 22) = 5 rounds
		{1 << 15, 15},
	}
	for _, c := range cases {
		if got := CeilLog2(c.x); got != c.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for i := 0; i < 63; i++ {
		if !IsPow2(1 << uint(i)) {
			t.Errorf("IsPow2(2^%d) = false", i)
		}
	}
	for _, x := range []uint64{0, 3, 5, 6, 7, 9, 12, 1000} {
		if IsPow2(x) {
			t.Errorf("IsPow2(%d) = true", x)
		}
	}
}

func TestPow(t *testing.T) {
	cases := []struct {
		base uint64
		exp  int
		want uint64
	}{
		{2, 10, 1024}, {3, 4, 81}, {10, 0, 1}, {0, 3, 0}, {1, 100, 1}, {7, 5, 16807},
	}
	for _, c := range cases {
		if got := Pow(c.base, c.exp); got != c.want {
			t.Errorf("Pow(%d,%d) = %d, want %d", c.base, c.exp, got, c.want)
		}
	}
}

func TestPowOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow(2,64) did not panic")
		}
	}()
	Pow(2, 64)
}

func TestFloorRootExhaustiveSmall(t *testing.T) {
	for k := 1; k <= 6; k++ {
		for x := uint64(0); x <= 5000; x++ {
			got := FloorRoot(x, k)
			// got**k <= x < (got+1)**k
			if Pow(got, k) > x {
				t.Fatalf("FloorRoot(%d,%d) = %d: root too large", x, k, got)
			}
			if !powGreater(got+1, k, x) {
				t.Fatalf("FloorRoot(%d,%d) = %d: root too small", x, k, got)
			}
		}
	}
}

func TestCeilRootKnown(t *testing.T) {
	cases := []struct {
		x    uint64
		k    int
		want uint64
	}{
		{16, 2, 4}, {17, 2, 5}, {15, 2, 4}, {27, 3, 3}, {28, 3, 4},
		{64, 3, 4}, {64, 6, 2}, {65, 6, 3}, {1, 5, 1}, {0, 3, 0},
		// Theorem 5 ingredient: m* = ceil(sqrt(2n+4)) - 2 for n = 15: sqrt(34) -> 6, m* = 4.
		{34, 2, 6},
	}
	for _, c := range cases {
		if got := CeilRoot(c.x, c.k); got != c.want {
			t.Errorf("CeilRoot(%d,%d) = %d, want %d", c.x, c.k, got, c.want)
		}
	}
}

func TestRootsLargeValues(t *testing.T) {
	if got := FloorRoot(math.MaxUint64, 2); got != (1<<32)-1 {
		t.Errorf("FloorRoot(MaxUint64,2) = %d, want %d", got, uint64(1<<32)-1)
	}
	if got := FloorRoot(1<<60, 4); got != 1<<15 {
		t.Errorf("FloorRoot(2^60,4) = %d, want %d", got, 1<<15)
	}
	if got := CeilRoot(1<<60+1, 4); got != 1<<15+1 {
		t.Errorf("CeilRoot(2^60+1,4) = %d, want %d", got, 1<<15+1)
	}
}

// Property: for random x and k in 1..8, FloorRoot agrees with the float
// computation within its exactness guarantees, and Ceil/Floor are consistent.
func TestRootProperties(t *testing.T) {
	f := func(x uint64, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		fl := FloorRoot(x, k)
		cl := CeilRoot(x, k)
		if Pow2Safe(fl, k) > x {
			return false
		}
		if cl < fl || cl > fl+1 {
			return false
		}
		if cl == fl && x != 0 && Pow(fl, k) != x && k > 1 && fl != x {
			// ceil == floor only when exact power (or k == 1).
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Pow2Safe is Pow but saturating instead of panicking, for property tests.
func Pow2Safe(base uint64, exp int) uint64 {
	result := uint64(1)
	for i := 0; i < exp; i++ {
		if base != 0 && result > ^uint64(0)/base {
			return ^uint64(0)
		}
		result *= base
	}
	return result
}

// Property: CeilLog2(x) is the number of rounds needed to double 1 up to x.
func TestCeilLog2DoublingProperty(t *testing.T) {
	f := func(xRaw uint32) bool {
		x := uint64(xRaw) + 1
		r := CeilLog2(x)
		// 2^r >= x and (r == 0 or 2^(r-1) < x)
		if Pow2Safe(2, r) < x {
			return false
		}
		if r > 0 && Pow2Safe(2, r-1) >= x {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// IsPow2 reports whether x is a power of two (x > 0).
func IsPow2(x uint64) bool {
	return x != 0 && x&(x-1) == 0
}
