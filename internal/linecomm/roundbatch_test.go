package linecomm

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"
)

// canonicalBatches are envelopes the scanner must decode itself: the
// FORMAT.md example and whitespace, empty-round, boundary-value and
// trailing-byte variants of it.
var canonicalBatches = []string{
	`{"rounds": [[[0, 2]], [[0, 1], [2, 3]]]}`,
	"\n\t{ \"rounds\" :[ [ [0 ,2 ] ] ,[[0,1],\r\n[2,3]]]\t}\r\n",
	`{"rounds":[]}`,
	`{"rounds":[[],[[0,1]],[]]}`,
	`{"rounds":[[[18446744073709551615,0,9,10]]]}`,
	`{"rounds":[[[0,1]]]} trailing bytes {"rounds":[[`,
}

// fallbackBatches are inputs the scanner must hand to the reference:
// everything encoding/json reads differently from the canonical form,
// and every malformed envelope.
var fallbackBatches = []string{
	``,
	`{}`,
	`[]`,
	`{"Rounds":[[[0,1]]]}`,
	`{"\u0072ounds":[[[0,1]]]}`,
	`{"rounds":[[[0,1]]],"extra":1}`,
	`{"extra":1,"rounds":[[[0,1]]]}`,
	`{"rounds":[[[0,1]]],"rounds":[[[2,3]]]}`,
	`{"rounds":null}`,
	`{"rounds":[null]}`,
	`{"rounds":[[[1e2,1]]]}`,
	`{"rounds":[[[1.0,1]]]}`,
	`{"rounds":[[[01,2]]]}`,
	`{"rounds":[[[-0,2]]]}`,
	`{"rounds":[[[18446744073709551616,2]]]}`,
	`{"rounds":[[[99999999999999999999,2]]]}`,
	`{"rounds":[[[5]]]}`,
	`{"rounds":[[[]]]}`,
	`{"rounds":[[[0,1]],]}`,
	`{"rounds":[[[0,1,]]]}`,
	`{"rounds":[[[0 1]]]}`,
	`{"rounds":[[[0,1]]]`,
	`{"rounds":[[[0,"1"]]]}`,
	"\ufeff{\"rounds\":[]}",
}

// FuzzReadRoundBatch: for any bytes, ReadRoundBatch gives the outcome
// of the encoding/json reference — both accept with DeepEqual rounds,
// or both reject with the same error string.
func FuzzReadRoundBatch(f *testing.F) {
	for _, s := range canonicalBatches {
		f.Add([]byte(s))
	}
	for _, s := range fallbackBatches {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := ReadRoundBatch(bytes.NewReader(data))
		want, werr := decodeRoundBatchJSON(data)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%q: error %v, reference error %v", data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %v, reference %v", data, got, want)
		}
	})
}

// TestScanRoundBatchPaths pins which inputs take the scanner and which
// the reference, so the differential fuzzer cannot pass by the scanner
// silently declining everything.
func TestScanRoundBatchPaths(t *testing.T) {
	for _, s := range canonicalBatches {
		rounds, ok := scanRoundBatch([]byte(s))
		if !ok {
			t.Errorf("%q: scanner declined a canonical envelope", s)
			continue
		}
		want, err := decodeRoundBatchJSON([]byte(s))
		if err != nil || !reflect.DeepEqual(rounds, want) {
			t.Errorf("%q: scanned %v, reference %v (%v)", s, rounds, want, err)
		}
	}
	for _, s := range fallbackBatches {
		if _, ok := scanRoundBatch([]byte(s)); ok {
			t.Errorf("%q: scanner accepted a non-canonical envelope", s)
		}
	}
}

// TestScanRoundBatchAliasing: paths are capacity-capped views of one
// slab, so appending to one path never overwrites the next.
func TestScanRoundBatchAliasing(t *testing.T) {
	rounds, ok := scanRoundBatch([]byte(`{"rounds":[[[0,1],[2,3]],[[4,5]]]}`))
	if !ok {
		t.Fatal("scanner declined a canonical envelope")
	}
	_ = append(rounds[0][0].Path, 99)
	_ = append(rounds[0], Call{Path: []uint64{7, 7}})
	want := []Round{{{Path: []uint64{0, 1}}, {Path: []uint64{2, 3}}}, {{Path: []uint64{4, 5}}}}
	if !reflect.DeepEqual(rounds, want) {
		t.Fatalf("append through an alias changed the batch: %v", rounds)
	}
}

// TestOpenBrackets: the word-wide count of '[' and adjacent "[[" pairs
// that sizes the call slab agrees with a byte loop, across word edges
// and partial tail words.
func TestOpenBrackets(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		const alphabet = "[[[], 0\xdb" // 0xdb is '[' with the high bit set
		b := make([]byte, rng.IntN(40))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		opens, pairs := 0, 0
		for i, c := range b {
			if c == '[' {
				opens++
				if i > 0 && b[i-1] == '[' {
					pairs++
				}
			}
		}
		if o, p := openBrackets(b); o != opens || p != pairs {
			t.Fatalf("%q: openBrackets = %d, %d, want %d, %d", b, o, p, opens, pairs)
		}
	}
}
