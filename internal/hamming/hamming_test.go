package hamming

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, p int) *Code {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	for _, p := range []int{0, -1, 7, 100} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) should fail", p)
		}
	}
	c := mustCode(t, 3)
	if c.Length() != 7 || c.Dimension() != 4 || c.NumCosets() != 8 || c.P() != 3 {
		t.Errorf("Ham(7) parameters wrong: %+v", c)
	}
}

func TestSyndromeBasics(t *testing.T) {
	c := mustCode(t, 3)
	if c.Syndrome(0) != 0 {
		t.Error("syndrome of 0 must be 0")
	}
	// Single-bit words: syndrome is the 1-based position.
	for pos := 1; pos <= 7; pos++ {
		if s := c.Syndrome(1 << uint(pos-1)); s != pos {
			t.Errorf("syndrome(e_%d) = %d", pos, s)
		}
	}
	// Known Hamming(7,4) codeword: positions {3,5,6} -> 3^5^6 = 0.
	if !c.IsCodeword(1<<2 | 1<<4 | 1<<5) {
		t.Error("positions {3,5,6} should be a codeword")
	}
}

func TestCodewordCountAndMinDistance(t *testing.T) {
	for p := 2; p <= 4; p++ {
		c := mustCode(t, p)
		m := c.Length()
		var codewords []uint64
		for x := uint64(0); x < 1<<uint(m); x++ {
			if c.IsCodeword(x) {
				codewords = append(codewords, x)
			}
		}
		if len(codewords) != 1<<uint(c.Dimension()) {
			t.Fatalf("Ham(%d): %d codewords, want 2^%d", m, len(codewords), c.Dimension())
		}
		minD := m + 1
		for i := range codewords {
			for j := i + 1; j < len(codewords); j++ {
				if d := bits.OnesCount64(codewords[i] ^ codewords[j]); d < minD {
					minD = d
				}
			}
		}
		if minD != 3 {
			t.Fatalf("Ham(%d): min distance %d, want 3", m, minD)
		}
	}
}

// The perfect-code property: every word is within distance 1 of exactly
// one codeword. Equivalently each coset (syndrome class) is a perfect
// dominating set of Q_m.
func TestPerfectCovering(t *testing.T) {
	for p := 2; p <= 4; p++ {
		c := mustCode(t, p)
		m := c.Length()
		for x := uint64(0); x < 1<<uint(m); x++ {
			cw := c.Correct(x)
			if !c.IsCodeword(cw) {
				t.Fatalf("Correct(%#x) = %#x is not a codeword", x, cw)
			}
			if d := bits.OnesCount64(x ^ cw); d > 1 {
				t.Fatalf("Correct moved %#x by distance %d", x, d)
			}
			// Exactly one codeword within distance 1: count them.
			cnt := 0
			if c.IsCodeword(x) {
				cnt++
			}
			for i := 0; i < m; i++ {
				if c.IsCodeword(x ^ 1<<uint(i)) {
					cnt++
				}
			}
			if cnt != 1 {
				t.Fatalf("word %#x has %d codewords within distance 1", x, cnt)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for p := 2; p <= 4; p++ {
		c := mustCode(t, p)
		for data := uint64(0); data < 1<<uint(c.Dimension()); data++ {
			w := c.Encode(data)
			if !c.IsCodeword(w) {
				t.Fatalf("Encode(%#x) not a codeword", data)
			}
			if got := c.Decode(w); got != data {
				t.Fatalf("Decode(Encode(%#x)) = %#x", data, got)
			}
			// Single-bit error correction.
			for i := 0; i < c.Length(); i++ {
				if got := c.Decode(w ^ 1<<uint(i)); got != data {
					t.Fatalf("p=%d data=%#x: error at bit %d not corrected (got %#x)", p, data, i, got)
				}
			}
		}
	}
}

func TestParityCheckMatrix(t *testing.T) {
	c := mustCode(t, 3)
	rows := c.ParityCheckMatrix()
	if len(rows) != 3 {
		t.Fatalf("H has %d rows", len(rows))
	}
	// Column i (position i+1) must read the binary representation of i+1.
	for pos := 1; pos <= 7; pos++ {
		col := 0
		for j := 0; j < 3; j++ {
			if rows[j]&(1<<uint(pos-1)) != 0 {
				col |= 1 << uint(j)
			}
		}
		if col != pos {
			t.Errorf("column of position %d reads %d", pos, col)
		}
	}
	// Syndrome via H rows equals Syndrome().
	for x := uint64(0); x < 128; x++ {
		s := 0
		for j, row := range rows {
			if bits.OnesCount64(row&x)%2 == 1 {
				s |= 1 << uint(j)
			}
		}
		if s != c.Syndrome(x) {
			t.Fatalf("H-syndrome %d != Syndrome %d for %#x", s, c.Syndrome(x), x)
		}
	}
}

func TestCosetRepresentativeBit(t *testing.T) {
	for p := 2; p <= 4; p++ {
		c := mustCode(t, p)
		m := c.Length()
		for x := uint64(0); x < 1<<uint(m); x++ {
			for s := 0; s < c.NumCosets(); s++ {
				bit := c.CosetRepresentativeBit(x, s)
				if bit == -1 {
					if c.Syndrome(x) != s {
						t.Fatalf("claimed x in coset %d but syndrome %d", s, c.Syndrome(x))
					}
					continue
				}
				if bit < 0 || bit >= m {
					t.Fatalf("dominator bit %d out of range", bit)
				}
				if got := c.Syndrome(x ^ 1<<uint(bit)); got != s {
					t.Fatalf("flip bit %d of %#x: syndrome %d, want %d", bit, x, got, s)
				}
			}
		}
	}
}

// Property: syndromes are linear: Syndrome(x^y) = Syndrome(x)^Syndrome(y).
func TestSyndromeLinearity(t *testing.T) {
	c := mustCode(t, 5) // length 31
	f := func(xRaw, yRaw uint32) bool {
		x := uint64(xRaw) & (1<<31 - 1)
		y := uint64(yRaw) & (1<<31 - 1)
		return c.Syndrome(x^y) == c.Syndrome(x)^c.Syndrome(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: cosets partition the space into equal-size classes.
func TestCosetSizes(t *testing.T) {
	c := mustCode(t, 3)
	sizes := make([]int, c.NumCosets())
	for x := uint64(0); x < 128; x++ {
		sizes[c.Syndrome(x)]++
	}
	for s, sz := range sizes {
		if sz != 16 {
			t.Errorf("coset %d has size %d, want 16", s, sz)
		}
	}
}

func TestDegenerateP1(t *testing.T) {
	c := mustCode(t, 1)
	if c.Length() != 1 || c.Dimension() != 0 || c.NumCosets() != 2 {
		t.Fatal("Ham(1) parameters wrong")
	}
	if c.Syndrome(0) != 0 || c.Syndrome(1) != 1 {
		t.Fatal("Ham(1) syndromes wrong")
	}
	if c.Encode(0) != 0 || c.Decode(1) != 0 {
		t.Fatal("Ham(1) encode/decode wrong")
	}
}

// The accessors and codec below serve only the tests.

// Dimension returns the number of data bits, m - p.
func (c *Code) Dimension() int { return c.m - c.p }

// Correct returns the nearest codeword to x (distance <= 1), flipping the
// position named by the syndrome when nonzero.
func (c *Code) Correct(x uint64) uint64 {
	s := c.Syndrome(x)
	if s == 0 {
		return x
	}
	return x ^ 1<<uint(s-1)
}

// P returns the number of parity bits.
func (c *Code) P() int { return c.p }

// Length returns the code length m = 2^p - 1.
func (c *Code) Length() int { return c.m }

// NumCosets returns the number of syndrome classes, 2^p = m + 1.
func (c *Code) NumCosets() int { return c.m + 1 }

// IsCodeword reports whether x belongs to the code.
func (c *Code) IsCodeword(x uint64) bool { return c.Syndrome(x) == 0 }

// Encode maps a data word (Dimension() bits) to a codeword: data bits are
// placed at non-power-of-two positions in increasing order, then the
// power-of-two parity positions are set so that the syndrome vanishes.
func (c *Code) Encode(data uint64) uint64 {
	if data>>uint(c.Dimension()) != 0 {
		panic(fmt.Sprintf("hamming: data %#x exceeds dimension %d", data, c.Dimension()))
	}
	var word uint64
	bit := 0
	for pos := 1; pos <= c.m; pos++ {
		if pos&(pos-1) == 0 { // power of two: parity slot
			continue
		}
		if data&(1<<uint(bit)) != 0 {
			word |= 1 << uint(pos-1)
		}
		bit++
	}
	s := c.Syndrome(word)
	// The syndrome of the data positions is cancelled by setting parity
	// position 2^j whenever bit j of s is 1; parity positions have
	// single-bit columns so they contribute exactly 2^j each.
	for j := 0; j < c.p; j++ {
		if s&(1<<uint(j)) != 0 {
			word |= 1 << uint((1<<uint(j))-1)
		}
	}
	return word
}

// Decode inverts Encode on a received word with at most one bit error:
// it corrects the word and extracts the data positions.
func (c *Code) Decode(received uint64) uint64 {
	word := c.Correct(received)
	var data uint64
	bit := 0
	for pos := 1; pos <= c.m; pos++ {
		if pos&(pos-1) == 0 {
			continue
		}
		if word&(1<<uint(pos-1)) != 0 {
			data |= 1 << uint(bit)
		}
		bit++
	}
	return data
}

// ParityCheckMatrix returns the p x m parity-check matrix H as row masks:
// row j has a 1 in column i-1 iff bit j of i is set. Columns are exactly
// the nonzero p-bit vectors, which is what makes every syndrome class a
// perfect dominating set of Q_m.
func (c *Code) ParityCheckMatrix() []uint64 {
	rows := make([]uint64, c.p)
	for pos := 1; pos <= c.m; pos++ {
		for j := 0; j < c.p; j++ {
			if pos&(1<<uint(j)) != 0 {
				rows[j] |= 1 << uint(pos-1)
			}
		}
	}
	return rows
}

// CosetRepresentativeBit returns, for a word x and a target syndrome s,
// the 0-based bit position to flip so that the result has syndrome s, or
// -1 if x already has syndrome s. This is the "dominator" lookup behind
// Condition A: flipping position (Syndrome(x) XOR s) moves x into coset s.
func (c *Code) CosetRepresentativeBit(x uint64, s int) int {
	cur := c.Syndrome(x)
	if cur == s {
		return -1
	}
	return (cur ^ s) - 1 // position (1-based) = cur XOR s, always in [1, m]
}
