package schedio

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"sparsehypercube/internal/linecomm"
)

// splitReader hands out data[:at] first and the rest after it, so the
// decoder's buffer refill edge falls at byte at of the stream.
type splitReader struct {
	data []byte
	at   int
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := len(r.data)
	if r.at > 0 && r.at < n {
		n = r.at
	}
	n = copy(p, r.data[:n])
	r.data = r.data[n:]
	r.at -= n
	return n, nil
}

// decodeOutcome is everything a streaming decode reports: the header,
// the rounds it yielded, its error text and the bytes it consumed.
type decodeOutcome struct {
	H        Header
	Rounds   []linecomm.Round
	Err      string
	Consumed int64
	HasIndex bool
}

func decodeOutcomeOf(r io.Reader) decodeOutcome {
	d, err := NewDecoder(r)
	if err != nil {
		return decodeOutcome{Err: err.Error()}
	}
	out := decodeOutcome{H: d.Header()}
	for round := range d.Rounds() {
		out.Rounds = append(out.Rounds, linecomm.CloneRound(round))
	}
	if err := d.Err(); err != nil {
		out.Err = err.Error()
	}
	out.Consumed, out.HasIndex = d.Consumed(), d.HasIndex()
	return out
}

// rangeOutcome drains one RoundRange and reports what it yielded, its
// error text and, after a clean drain, its CRC.
func rangeOutcome(rr *RoundRange) (rounds []linecomm.Round, errText string, crc uint32) {
	for round := range rr.Rounds() {
		rounds = append(rounds, linecomm.CloneRound(round))
	}
	crc, err := rr.CRC()
	if err != nil {
		errText = err.Error()
	}
	return rounds, errText, crc
}

// chunkedSeeds are the hostile call encodings the buffered fast path
// must hand to the reference path untouched, each followed by filler
// so the bad bytes sit well inside one read buffer.
func chunkedSeeds() [][]byte {
	filler := bytes.Repeat([]byte{2, 5, 1}, 16)
	call := func(fields ...byte) []byte {
		b := append(minimalHeader(), 2) // one round of one call
		return append(append(b, fields...), filler...)
	}
	overflow := append(bytes.Repeat([]byte{0xff}, 9), 0x7f)
	return [][]byte{
		call(2, 0x80, 0x00, 1),                     // non-canonical vertex
		call(0x82, 0x00, 1, 2),                     // non-canonical path length
		call(2, 3, 0x81, 0x80, 0x00),               // non-canonical three-byte delta
		call(append([]byte{2, 1}, overflow...)...), // 10-byte overflow vertex
		call(append([]byte{2, 1}, bytes.Repeat([]byte{0x80}, 11)...)...),
		call(binary.AppendUvarint(nil, maxPathLen+1)...), // path over the cap
		append(append(minimalHeader(), 2), 60, 1, 2, 3),  // plen past the data
	}
}

// FuzzDecodeChunked is the differential check on the decoder's buffered
// fast path. The same bytes decode through readers that deliver them
// whole, one byte at a time, half a buffer at a time, and split at a
// fuzzed offset, so calls straddle the refill edge and the fast and
// reference paths interleave differently in each; the rounds, error
// text and bytes consumed must agree exactly. An indexed plan is also
// decoded through PlanAt.Range and DecodeSpan, cut at a fuzzed round:
// those two must agree exactly, yield a prefix of the stream's rounds,
// and yield all of them when the stream and PlanAt.Check accept the
// file.
func FuzzDecodeChunked(f *testing.F) {
	for _, seed := range [][]byte{
		encodePlan(f, 1, 4, 0, false),
		encodePlan(f, 2, 7, 3, false),
		encodePlan(f, 3, 9, 100, false),
		encodePlan(f, 2, 7, 3, true),
		encodePlan(f, 2, 9, 6, true),
		encodeGossipPlan(f, 2, 7, 3),
	} {
		f.Add(seed, uint16(len(seed)/2))
		f.Add(seed[:len(seed)*3/5], uint16(len(seed)/4)) // truncated mid-call
	}
	for _, seed := range chunkedSeeds() {
		f.Add(seed, uint16(len(minimalHeader())+2))
	}
	for _, seed := range adversarialHeaders() {
		f.Add(seed, uint16(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, at uint16) {
		ref := decodeOutcomeOf(bytes.NewReader(data))
		for _, via := range []struct {
			name string
			r    io.Reader
		}{
			{"one byte", iotest.OneByteReader(bytes.NewReader(data))},
			{"half", iotest.HalfReader(bytes.NewReader(data))},
			{"split", &splitReader{data: data, at: int(at)}},
		} {
			if got := decodeOutcomeOf(via.r); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%s reader: decode diverges from bytes.Reader\ngot:  %+v\nwant: %+v", via.name, got, ref)
			}
		}
		checkRangesAgainst(t, data, ref, int(at))
	})
}

// checkRangesAgainst decodes an indexed plan's rounds in one or two
// ranges, locally and as shipped spans, against the stream outcome ref.
func checkRangesAgainst(t *testing.T, data []byte, ref decodeOutcome, at int) {
	p, err := OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil || !p.Indexed() || p.NumRounds() == 0 {
		return
	}
	n := p.NumRounds()
	bounds := []int{0, n}
	if c := at % n; c > 0 {
		bounds = []int{0, c, n}
	}
	var all []linecomm.Round
	clean := true
	for i := 0; i+1 < len(bounds) && clean; i++ {
		lo, hi := bounds[i], bounds[i+1]
		rr, err := p.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range(%d, %d): %v", lo, hi, err)
		}
		span, err := p.RangeBytes(lo, hi)
		if err != nil {
			t.Fatalf("RangeBytes(%d, %d): %v", lo, hi, err)
		}
		sr, err := DecodeSpan(p.Header(), span, lo, hi)
		if err != nil {
			t.Fatalf("DecodeSpan(%d, %d): %v", lo, hi, err)
		}
		rounds, errText, crc := rangeOutcome(rr)
		srounds, serrText, scrc := rangeOutcome(sr)
		if !reflect.DeepEqual(rounds, srounds) || errText != serrText || crc != scrc {
			t.Fatalf("rounds [%d,%d): Range and DecodeSpan diverge: %d rounds %q crc %08x vs %d rounds %q crc %08x",
				lo, hi, len(rounds), errText, crc, len(srounds), serrText, scrc)
		}
		all = append(all, rounds...)
		clean = errText == ""
	}
	if len(all) > len(ref.Rounds) || (len(all) > 0 && !reflect.DeepEqual(all, ref.Rounds[:len(all)])) {
		t.Fatalf("ranges yielded %d rounds that are not a prefix of the stream's %d", len(all), len(ref.Rounds))
	}
	if ref.Err != "" {
		return
	}
	if _, err := p.Check(); err == nil && (!clean || len(all) != len(ref.Rounds)) {
		t.Fatalf("stream and Check accept the plan, ranges yielded %d of %d rounds (clean %v)", len(all), len(ref.Rounds), clean)
	}
}
