package schedio

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sparsehypercube/internal/linecomm"
)

func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 4096)
	rng.Read(buf)
	for _, split := range []int{0, 1, 7, 100, 2048, 4095, 4096} {
		a, b := buf[:split], buf[split:]
		got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
		if want := crc32.ChecksumIEEE(buf); got != want {
			t.Errorf("split %d: combined %08x, direct %08x", split, got, want)
		}
	}
	// Three-way association, as CheckRangeCRCs chains it.
	crc := crc32.ChecksumIEEE(buf[:100])
	crc = crc32Combine(crc, crc32.ChecksumIEEE(buf[100:1000]), 900)
	crc = crc32Combine(crc, crc32.ChecksumIEEE(buf[1000:]), int64(len(buf)-1000))
	if want := crc32.ChecksumIEEE(buf); crc != want {
		t.Errorf("chained combine %08x, direct %08x", crc, want)
	}
}

func TestRoundRangeMatchesStream(t *testing.T) {
	data := encodePlan(t, 2, 6, 0, true)
	_, s, err := DecodeAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumRounds()
	if n != len(s.Rounds) {
		t.Fatalf("NumRounds = %d, want %d", n, len(s.Rounds))
	}
	for _, split := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {1, n - 1}} {
		rr, err := p.Range(split[0], split[1])
		if err != nil {
			t.Fatal(err)
		}
		i := split[0]
		for round := range rr.Rounds() {
			if !reflect.DeepEqual(linecomm.CloneRound(round), s.Rounds[i]) {
				t.Fatalf("range %v: round %d diverges", split, i)
			}
			i++
		}
		if i != split[1] {
			t.Fatalf("range %v yielded %d rounds", split, i-split[0])
		}
		if _, err := rr.CRC(); err != nil {
			t.Fatalf("range %v: %v", split, err)
		}
	}

	// DisableCRC: status still reported, checksum unavailable.
	rrNo, err := p.Range(0, n)
	if err != nil {
		t.Fatal(err)
	}
	rrNo.DisableCRC()
	if err := rrNo.Err(); err == nil {
		t.Error("Err nil before any drain")
	}
	for range rrNo.Rounds() {
	}
	if err := rrNo.Err(); err != nil {
		t.Errorf("CRC-less drain: %v", err)
	}
	if _, err := rrNo.CRC(); err == nil {
		t.Error("CRC available despite DisableCRC")
	}

	// Bounds and misuse.
	if _, err := p.Range(-1, 1); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := p.Range(0, n+1); err == nil {
		t.Error("hi beyond rounds accepted")
	}
	if _, err := p.Range(2, 2); err == nil {
		t.Error("empty range accepted")
	}
	rr, _ := p.Range(0, n)
	for range rr.Rounds() {
		break // abandon mid-stream
	}
	if _, err := rr.CRC(); err == nil {
		t.Error("CRC available without a full drain")
	}
	for range rr.Rounds() {
	}
	if _, err := rr.CRC(); err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Errorf("second Rounds call: err = %v", err)
	}

	// A plain (unindexed) plan has no ranges.
	plain := encodePlan(t, 2, 6, 0, false)
	pp, err := OpenPlanAt(bytes.NewReader(plain), int64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Range(0, 1); err == nil {
		t.Error("Range on unindexed plan accepted")
	}
	if err := pp.CheckRangeCRCs(nil); err == nil {
		t.Error("CheckRangeCRCs on unindexed plan accepted")
	}
}

// collectRangeCRCs drains every range of a W-way split and returns the
// RangeCRC parts, failing the test on any decode error.
func collectRangeCRCs(t *testing.T, p *PlanAt, workers int) []RangeCRC {
	t.Helper()
	n := p.NumRounds()
	var parts []RangeCRC
	for w := range workers {
		lo, hi := w*n/workers, (w+1)*n/workers
		if lo == hi {
			continue
		}
		rr, err := p.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for range rr.Rounds() {
		}
		crc, err := rr.CRC()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, RangeCRC{CRC: crc, Bytes: rr.Bytes()})
	}
	return parts
}

func TestCheckRangeCRCs(t *testing.T) {
	data := encodePlan(t, 2, 6, 0, true)
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, p.NumRounds()} {
		if err := p.CheckRangeCRCs(collectRangeCRCs(t, p, workers)); err != nil {
			t.Errorf("%d workers: %v", workers, err)
		}
	}

	// Incomplete coverage must be refused.
	parts := collectRangeCRCs(t, p, 2)
	if err := p.CheckRangeCRCs(parts[:1]); err == nil {
		t.Error("partial coverage accepted")
	}
	// A wrong per-range CRC must fail the footer comparison.
	bad := append([]RangeCRC(nil), parts...)
	bad[0].CRC ^= 1
	if err := p.CheckRangeCRCs(bad); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("corrupted range CRC: err = %v", err)
	}

	// A flipped byte inside a round span surfaces either as a range
	// decode error or as a CRC mismatch — never silence.
	for off := int(p.offs[0]); off < int(p.offs[len(p.offs)-1]); off += 11 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x5a
		mp, err := OpenPlanAt(bytes.NewReader(mut), int64(len(mut)))
		if err != nil {
			continue // index disagreement caught at open: fine
		}
		caught := false
		var mparts []RangeCRC
		n := mp.NumRounds()
		for w := range 3 {
			lo, hi := w*n/3, (w+1)*n/3
			if lo == hi {
				continue
			}
			rr, rerr := mp.Range(lo, hi)
			if rerr != nil {
				t.Fatal(rerr)
			}
			for range rr.Rounds() {
			}
			crc, rerr := rr.CRC()
			if rerr != nil {
				caught = true
				break
			}
			mparts = append(mparts, RangeCRC{CRC: crc, Bytes: rr.Bytes()})
		}
		if !caught && mp.CheckRangeCRCs(mparts) == nil {
			t.Fatalf("flipped byte at %d slipped through range verification", off)
		}
	}
}

// TestRangeBytesDecodeSpan: the shipped form of a range — raw span
// bytes out of RangeBytes, decoded detached by DecodeSpan — must yield
// exactly the rounds and span CRC the attached PlanAt.Range yields, and
// both refusal paths (bad bounds, missing index, truncated or corrupted
// spans) must error rather than mis-decode.
func TestRangeBytesDecodeSpan(t *testing.T) {
	data := encodePlan(t, 2, 6, 0, true)
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumRounds()
	for _, split := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {1, n - 1}} {
		lo, hi := split[0], split[1]
		span, err := p.RangeBytes(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		attached, err := p.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var want []linecomm.Round
		for round := range attached.Rounds() {
			want = append(want, linecomm.CloneRound(round))
		}
		wantCRC, err := attached.CRC()
		if err != nil {
			t.Fatal(err)
		}
		if got := crc32.ChecksumIEEE(span); got != wantCRC {
			t.Fatalf("range %v: span checksum %08x, range CRC %08x", split, got, wantCRC)
		}
		detached, err := DecodeSpan(p.Header(), span, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if got := detached.Bytes(); got != int64(len(span)) {
			t.Fatalf("range %v: Bytes() = %d, span is %d", split, got, len(span))
		}
		i := 0
		for round := range detached.Rounds() {
			if !reflect.DeepEqual(linecomm.CloneRound(round), want[i]) {
				t.Fatalf("range %v: detached round %d diverges", split, lo+i)
			}
			i++
		}
		gotCRC, err := detached.CRC()
		if err != nil {
			t.Fatalf("range %v: detached CRC: %v", split, err)
		}
		if gotCRC != wantCRC {
			t.Fatalf("range %v: detached CRC %08x, want %08x", split, gotCRC, wantCRC)
		}
	}

	// Bounds refusals mirror Range's.
	for _, split := range [][2]int{{-1, 1}, {2, 2}, {3, 1}, {0, n + 1}} {
		if _, err := p.RangeBytes(split[0], split[1]); err == nil {
			t.Errorf("RangeBytes(%d,%d) accepted", split[0], split[1])
		}
	}
	if _, err := DecodeSpan(p.Header(), nil, 1, 1); err == nil {
		t.Error("DecodeSpan accepted an empty range")
	}

	// An unindexed plan has no spans to ship.
	plain := encodePlan(t, 2, 6, 0, false)
	pp, err := OpenPlanAt(bytes.NewReader(plain), int64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.RangeBytes(0, 1); err == nil {
		t.Error("RangeBytes on an unindexed plan accepted")
	}

	// A truncated span must fail the exact-byte-span check; a corrupted
	// one must fail the decode or the drain — never silently yield.
	span, err := p.RangeBytes(1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := DecodeSpan(p.Header(), span[:len(span)-1], 1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for range trunc.Rounds() {
	}
	if trunc.Err() == nil {
		t.Error("truncated span drained cleanly")
	}
	bad := append([]byte(nil), span...)
	bad[0] ^= 0xff
	corrupt, err := DecodeSpan(p.Header(), bad, 1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	for range corrupt.Rounds() {
	}
	if corrupt.Err() == nil {
		t.Error("corrupted span drained cleanly")
	}
}

// checkSplit asserts SplitRounds' contract for one plan and range cap:
// contiguous, non-empty ranges covering [0, NumRounds), at most n of
// them, and none of two or more rounds above 2/n of the round bytes
// (up to integer rounding of the targets).
func checkSplit(t *testing.T, p *PlanAt, n int) []int {
	t.Helper()
	bounds, err := p.SplitRounds(n)
	if err != nil {
		t.Fatal(err)
	}
	rounds := p.NumRounds()
	if bounds[0] != 0 || bounds[len(bounds)-1] != rounds {
		t.Fatalf("n=%d: bounds %v do not cover [0,%d)", n, bounds, rounds)
	}
	if nr := len(bounds) - 1; nr > max(n, 1) || nr > rounds {
		t.Fatalf("n=%d: %d ranges over %d rounds: %v", n, nr, rounds, bounds)
	}
	span := func(lo, hi int) int64 {
		b, err := p.RangeBytes(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(b))
	}
	total := span(0, rounds)
	for i := 1; i < len(bounds); i++ {
		lo, hi := bounds[i-1], bounds[i]
		if lo >= hi {
			t.Fatalf("n=%d: empty or reversed range [%d,%d) in %v", n, lo, hi, bounds)
		}
		if b := span(lo, hi); hi-lo > 1 && b*int64(n) > 2*total+2*int64(n) {
			t.Fatalf("n=%d: range [%d,%d) holds %d of %d bytes, above 2/n", n, lo, hi, b, total)
		}
	}
	return bounds
}

// TestSplitRounds: the byte-balanced split holds its contract on the
// doubling profile of real broadcast plans and on synthetic round-size
// profiles, for every cap from below one to beyond the round count.
func TestSplitRounds(t *testing.T) {
	for _, kn := range [][2]int{{1, 9}, {2, 12}, {3, 12}} {
		data := encodePlan(t, kn[0], kn[1], 3, true)
		p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for n := -1; n <= p.NumRounds()+3; n++ {
			checkSplit(t, p, n)
		}
	}

	// Doubling profile: the last round is about half the bytes and the
	// one before it a quarter, so four targets cut just before both.
	data := encodePlan(t, 2, 14, 0, true)
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := checkSplit(t, p, 4), []int{0, 12, 13, 14}; !reflect.DeepEqual(got, want) {
		t.Fatalf("k=2 n=14 into 4: bounds %v, want %v", got, want)
	}

	// Synthetic profiles: flat, one giant round in the middle, giants
	// at both ends, and random sizes.
	rng := rand.New(rand.NewSource(5))
	random := make([]int, 23)
	for i := range random {
		random[i] = 1 + rng.Intn(40)
	}
	for _, sizes := range [][]int{
		{5, 5, 5, 5, 5, 5, 5, 5},
		{1, 1, 1, 60, 1, 1, 1},
		{50, 1, 1, 1, 1, 50},
		{1, 2},
		random,
	} {
		s := &linecomm.Schedule{}
		for _, calls := range sizes {
			round := make(linecomm.Round, calls)
			for c := range round {
				round[c] = linecomm.Call{Path: []uint64{0, 1}}
			}
			s.Rounds = append(s.Rounds, round)
		}
		var buf bytes.Buffer
		h := Header{K: 1, Dims: []int{4}, Scheme: "broadcast"}
		if _, err := EncodeIndexed(&buf, h, s); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPlanAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n <= len(sizes)+2; n++ {
			checkSplit(t, p, n)
		}
	}

	// An unindexed plan cannot be split.
	plain := encodePlan(t, 2, 6, 0, false)
	pp, err := OpenPlanAt(bytes.NewReader(plain), int64(len(plain)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.SplitRounds(4); err == nil {
		t.Fatal("unindexed plan split")
	}
}

// TestDecodeSpanShortAllocs: decoding a short span sizes the read
// buffer to the span, not to the stream decoder's 32 KiB. Rounds [0,4)
// of the k = 2, n = 16 broadcast from source 5 are 99 bytes.
// Measured: 2,656 bytes a decode (linux/amd64, Go 1.24), the buffer,
// the decoder and the round scratch; a 32 KiB buffer per range
// allocated 43,504.
func TestDecodeSpanShortAllocs(t *testing.T) {
	const ceiling = 4096
	data := encodePlan(t, 2, 16, 5, true)
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	span, err := p.RangeBytes(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		rr, err := DecodeSpan(p.Header(), span, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		for range rr.Rounds() {
		}
		if err := rr.Err(); err != nil {
			t.Fatal(err)
		}
	}
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d-byte span: %d bytes allocated", len(span), best)
	if best > ceiling {
		t.Fatalf("decoding a %d-byte span allocated %d bytes, ceiling %d", len(span), best, ceiling)
	}
}
