package schedio

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"iter"
	"reflect"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// fuzzSeed encodes a small (k, n) broadcast schedule for the corpus.
func fuzzSeed(f *testing.F, k, n int, source uint64) {
	f.Helper()
	s, err := core.NewAuto(k, n)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	h := Header{K: s.Params().K, Dims: s.Params().Dims, Scheme: "broadcast", Source: source}
	if _, err := Write(&buf, h, s.ScheduleRounds(source)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// fuzzSeedIndexed is fuzzSeed with the round index appended.
func fuzzSeedIndexed(f *testing.F, k, n int, source uint64) {
	f.Helper()
	s, err := core.NewAuto(k, n)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	h := Header{K: s.Params().K, Dims: s.Params().Dims, Scheme: "broadcast", Source: source}
	if _, err := WriteIndexed(&buf, h, s.ScheduleRounds(source)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
}

// adversarialHeaders are tiny hostile inputs that declare huge counts —
// round calls, path lengths, dims, scheme names, index rounds — with no
// bytes to back them. Shared between the fuzz corpus and the
// deterministic decoder tests: every one must fail with a clean error
// while allocating no more than a fixed multiple of its real size.
func adversarialHeaders() [][]byte {
	head, uv := minimalHeader, binary.AppendUvarint
	var out [][]byte
	// A round declaring 2^60 calls in a 30-byte file.
	out = append(out, uv(head(), 1<<60+1))
	// A round whose declared call count sits just past maxRoundCalls.
	out = append(out, uv(head(), maxRoundCalls+2))
	// One call declaring a 2^50-vertex path.
	out = append(out, uv(uv(head(), 2), 1<<50))
	// A header declaring 2^40 dims.
	out = append(out, uv([]byte{'S', 'H', 'C', 'P', 1, 1}, 1<<40))
	// A header declaring a 2^30-byte scheme name.
	out = append(out, uv([]byte{'S', 'H', 'C', 'P', 1, 1, 1, 4}, 1<<30))
	// A plan whose index declares 2^35 rounds backed by nothing: encode a
	// real empty-ish plan, then splice a hostile index after its CRC.
	var buf bytes.Buffer
	if _, err := Write(&buf, Header{K: 1, Dims: []int{4}, Scheme: "broadcast"}, emptyRounds()); err == nil {
		idx := []byte(indexMagic)
		idx = uv(idx, 1<<35)
		idx = uv(idx, 14)
		idx = binary.LittleEndian.AppendUint32(idx, crc32.ChecksumIEEE(idx))
		idx = binary.LittleEndian.AppendUint32(idx, uint32(len(idx)))
		out = append(out, append(buf.Bytes(), idx...))
	}
	return out
}

// minimalHeader is a minimal valid plan header: magic, version 1, k=1,
// one dim (4), scheme "broadcast", source 0.
func minimalHeader() []byte {
	b := []byte(magic)
	b = append(b, 1, 1, 1, 4)
	b = append(b, byte(len("broadcast")))
	b = append(b, "broadcast"...)
	return append(b, 0)
}

func emptyRounds() iter.Seq[linecomm.Round] {
	return func(yield func(linecomm.Round) bool) {}
}

// encodeGossipPlan streams the 2n-round gather-scatter gossip scheme of a
// small (k, n) cube through the codec, exactly as Plan.WriteTo does.
func encodeGossipPlan(tb testing.TB, k, n int, root uint64) []byte {
	tb.Helper()
	s, err := core.NewAuto(k, n)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	h := Header{K: s.Params().K, Dims: s.Params().Dims, Scheme: "gossip", Source: root}
	if _, err := Write(&buf, h, s.ScheduleGossipRounds(root)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCodecRoundTrip drives DecodeAll with arbitrary bytes. Contract:
// never panic; and when decoding succeeds, the whole input was consumed
// (trailing bytes are rejected) and re-encoding must reproduce it byte
// for byte (canonical varints + checksum make the encoding a bijection
// on its image), and a second decode of the re-encoding must agree.
func FuzzCodecRoundTrip(f *testing.F) {
	fuzzSeed(f, 1, 4, 0)
	fuzzSeed(f, 2, 7, 3)
	fuzzSeed(f, 3, 9, 100)
	fuzzSeedIndexed(f, 2, 7, 3)
	f.Add([]byte("SHCP"))
	f.Add([]byte{})
	for _, adv := range adversarialHeaders() {
		f.Add(adv)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := &linecomm.Schedule{Source: d.Header().Source}
		for round := range d.Rounds() {
			s.Rounds = append(s.Rounds, linecomm.CloneRound(round))
		}
		if d.Err() != nil {
			return
		}
		consumed := d.Consumed()
		if consumed != int64(len(data)) {
			t.Fatalf("decode succeeded consuming %d of %d bytes", consumed, len(data))
		}
		encode := Encode
		if d.HasIndex() {
			encode = EncodeIndexed
		}
		var re bytes.Buffer
		if _, err := encode(&re, d.Header(), s); err != nil {
			t.Fatalf("decoded plan failed to re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data[:consumed]) {
			t.Fatalf("re-encode diverges from consumed input:\nin:  %x\nout: %x",
				data[:consumed], re.Bytes())
		}
		h2, s2, err := DecodeAll(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("re-encoding failed to decode: %v", err)
		}
		if !reflect.DeepEqual(d.Header(), h2) {
			t.Fatalf("header unstable: %+v != %+v", d.Header(), h2)
		}
		if len(s2.Rounds) != len(s.Rounds) {
			t.Fatalf("round count unstable: %d != %d", len(s.Rounds), len(s2.Rounds))
		}
	})
}

// FuzzGossipPlanRoundTrip is the gossip-plan sibling of
// FuzzCodecRoundTrip: the corpus is seeded with streamed gather-scatter
// plans (reversed gather paths make the XOR deltas differ from broadcast
// plans, exercising the multi-byte delta encodings). Contract: never
// panic; a successful decode consumed the whole input and re-encodes byte
// for byte; truncation and corruption fail cleanly through Err.
func FuzzGossipPlanRoundTrip(f *testing.F) {
	f.Add(encodeGossipPlan(f, 1, 4, 0))
	f.Add(encodeGossipPlan(f, 2, 7, 3))
	f.Add(encodeGossipPlan(f, 3, 9, 100))
	// A truncated and a bit-flipped plan seed the failure paths.
	trunc := encodeGossipPlan(f, 2, 6, 1)
	f.Add(trunc[:len(trunc)*2/3])
	flipped := append([]byte(nil), trunc...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	for _, adv := range adversarialHeaders() {
		f.Add(adv)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := &linecomm.Schedule{Source: d.Header().Source}
		for round := range d.Rounds() {
			s.Rounds = append(s.Rounds, linecomm.CloneRound(round))
		}
		if d.Err() != nil {
			return
		}
		if consumed := d.Consumed(); consumed != int64(len(data)) {
			t.Fatalf("decode succeeded consuming %d of %d bytes", consumed, len(data))
		}
		encode := Encode
		if d.HasIndex() {
			encode = EncodeIndexed
		}
		var re bytes.Buffer
		if _, err := encode(&re, d.Header(), s); err != nil {
			t.Fatalf("decoded plan failed to re-encode: %v", err)
		}
		if !bytes.Equal(re.Bytes(), data) {
			t.Fatalf("re-encode diverges from input:\nin:  %x\nout: %x", data, re.Bytes())
		}
	})
}

// TestGossipPlanCodecRoundTrip is the deterministic core of the fuzz
// contract: for k in {1, 2, 3}, a streamed gossip plan decodes to exactly
// the rounds ScheduleGossipRounds generates and re-encodes byte for byte;
// every truncation point fails cleanly, as does a corrupted interior.
func TestGossipPlanCodecRoundTrip(t *testing.T) {
	for _, kn := range [][2]int{{1, 4}, {2, 7}, {3, 9}} {
		k, n := kn[0], kn[1]
		enc := encodeGossipPlan(t, k, n, 2)

		h, s, err := DecodeAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if h.Scheme != "gossip" || h.Source != 2 || len(s.Rounds) != 2*n {
			t.Fatalf("k=%d: decoded %q from %d with %d rounds", k, h.Scheme, h.Source, len(s.Rounds))
		}
		cube, err := core.NewAuto(k, n)
		if err != nil {
			t.Fatal(err)
		}
		ri := 0
		for want := range cube.ScheduleGossipRounds(2) {
			if !reflect.DeepEqual(linecomm.CloneRound(want), s.Rounds[ri]) {
				t.Fatalf("k=%d: decoded round %d diverges from generator", k, ri)
			}
			ri++
		}
		var re bytes.Buffer
		if _, err := Encode(&re, h, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re.Bytes()) {
			t.Fatalf("k=%d: re-encode not byte-identical (%d vs %d bytes)", k, len(enc), re.Len())
		}

		// Truncation at every prefix length must surface an error —
		// either at NewDecoder or through Err — never a silent pass.
		step := len(enc)/37 + 1
		for cut := 0; cut < len(enc); cut += step {
			d, err := NewDecoder(bytes.NewReader(enc[:cut]))
			if err != nil {
				continue
			}
			for range d.Rounds() {
			}
			if d.Err() == nil {
				t.Fatalf("k=%d: truncation at %d of %d decoded cleanly", k, cut, len(enc))
			}
		}

		// A flipped interior byte must be caught (worst case by the CRC).
		bad := append([]byte(nil), enc...)
		bad[len(bad)/2] ^= 0x01
		if d, err := NewDecoder(bytes.NewReader(bad)); err == nil {
			for range d.Rounds() {
			}
			if d.Err() == nil {
				t.Fatalf("k=%d: corrupted plan decoded cleanly", k)
			}
		}
	}
}
