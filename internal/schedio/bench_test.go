package schedio

import (
	"bytes"
	"testing"
)

// BenchmarkDecodeN18 is the codec's decode layer alone: one indexed
// k = 2, n = 18 broadcast plan (about 1.3 MB, 262,143 calls) streamed
// through the Decoder, checksum and index included, with no validator
// behind it. Compare with BenchmarkPlanVerifyIndexedN18 in the root
// package, which adds the validator on top.
func BenchmarkDecodeN18(b *testing.B) {
	data := encodePlan(b, 2, 18, 5, true)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for range d.Rounds() {
		}
		if err := d.Err(); err != nil {
			b.Fatal(err)
		}
		if d.Consumed() != int64(len(data)) {
			b.Fatalf("consumed %d of %d bytes", d.Consumed(), len(data))
		}
	}
}
