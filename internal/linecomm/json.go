package linecomm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// scheduleJSON is the stable on-disk representation of a Schedule.
type scheduleJSON struct {
	Source uint64       `json:"source"`
	Rounds [][][]uint64 `json:"rounds"` // rounds -> calls -> path
}

// WriteJSON serialises the schedule. The format is rounds of call paths,
// so schedules can be archived, diffed, and replayed across runs. It is
// the human-readable sibling of the compact streamed binary format in
// internal/schedio (which is what the public Plan.WriteTo speaks).
func WriteJSON(w io.Writer, s *Schedule) error {
	out := scheduleJSON{Source: s.Source, Rounds: make([][][]uint64, len(s.Rounds))}
	for i, round := range s.Rounds {
		out.Rounds[i] = make([][]uint64, len(round))
		for j, call := range round {
			out.Rounds[i][j] = call.Path
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadJSON deserialises a schedule written by WriteJSON, rejecting
// structurally broken inputs (empty or single-vertex paths).
func ReadJSON(r io.Reader) (*Schedule, error) {
	var in scheduleJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("linecomm: decoding schedule: %w", err)
	}
	s := &Schedule{Source: in.Source, Rounds: make([]Round, len(in.Rounds))}
	for i, round := range in.Rounds {
		s.Rounds[i] = make(Round, len(round))
		for j, path := range round {
			if len(path) < 2 {
				return nil, fmt.Errorf("linecomm: round %d call %d: path has %d vertices", i+1, j, len(path))
			}
			s.Rounds[i][j] = Call{Path: path}
		}
	}
	return s, nil
}

// roundBatchJSON is the service envelope for streaming rounds into an
// open verification session: a batch of consecutive rounds, each a list
// of call paths — the same shape as scheduleJSON's rounds field, minus
// the source (the session carries it).
type roundBatchJSON struct {
	Rounds [][][]uint64 `json:"rounds"`
}

// ReadRoundBatch deserialises one round batch, applying the same
// structural validation as ReadJSON: every call path must have at least
// two vertices. An empty batch is valid (a keep-alive). It reads r to
// EOF, so a size-capped reader's limit error surfaces even when the
// batch object closes before the cap; bytes after the object are
// ignored.
//
// The canonical envelope — the one key "rounds", decimal integers, JSON
// whitespace anywhere — decodes without reflection, in a counting scan
// and a filling scan, into two slabs per batch (see scanRoundBatch).
// Every other input, including every invalid one, goes to the
// encoding/json reference (decodeRoundBatchJSON), which defines the
// accepted wire format and every error message; the fast path returns
// exactly what the reference would.
func ReadRoundBatch(r io.Reader) ([]Round, error) {
	data, err := readBatch(r)
	if err != nil {
		return nil, fmt.Errorf("linecomm: decoding round batch: %w", err)
	}
	if rounds, ok := scanRoundBatch(data); ok {
		return rounds, nil
	}
	return decodeRoundBatchJSON(data)
}

// readBatch reads r to EOF. A reader that knows its remaining length
// (bytes.Reader, strings.Reader, bytes.Buffer) is read into one exact
// buffer; any other is grown by doubling as bytes arrive, so storage
// never runs ahead of what the peer actually sent.
func readBatch(r io.Reader) ([]byte, error) {
	size := 512
	if l, ok := r.(interface{ Len() int }); ok {
		size = l.Len() + 1 // the +1 lets the EOF read land without growing
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, cap(b))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRoundBatchJSON is the encoding/json reference decoder for one
// round batch: it defines what the session endpoint accepts (key case
// folding, unknown keys ignored, bytes after the object ignored) and
// its error messages. ReadRoundBatch's scanner must agree with it on
// every input (FuzzReadRoundBatch).
func decodeRoundBatchJSON(data []byte) ([]Round, error) {
	var in roundBatchJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return nil, fmt.Errorf("linecomm: decoding round batch: %w", err)
	}
	out := make([]Round, len(in.Rounds))
	for i, round := range in.Rounds {
		out[i] = make(Round, len(round))
		for j, path := range round {
			if len(path) < 2 {
				return nil, fmt.Errorf("linecomm: batch round %d call %d: path has %d vertices", i, j, len(path))
			}
			out[i][j] = Call{Path: path}
		}
	}
	return out, nil
}

// WriteRoundBatch serialises rounds as a service round batch, the
// client-side sibling of ReadRoundBatch.
func WriteRoundBatch(w io.Writer, rounds []Round) error {
	out := roundBatchJSON{Rounds: make([][][]uint64, len(rounds))}
	for i, round := range rounds {
		out.Rounds[i] = make([][]uint64, len(round))
		for j, call := range round {
			out.Rounds[i][j] = call.Path
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// scanRoundBatch decodes the canonical envelope
//
//	{"rounds": [[[u,v,...],...],...]}
//
// with JSON whitespace anywhere, the exact key "rounds", decimal uint64
// literals without sign, fraction, exponent or leading zero, and every
// path at least two vertices long. A first pass validates and counts;
// the second fills one vertex slab and one call slab, which every path
// and round aliases (capacity-capped, so appending to one never writes
// into the next). ok is false for any other input, which the caller
// hands to the reference decoder: the scanner never reports errors.
func scanRoundBatch(data []byte) (rounds []Round, ok bool) {
	count := batchScan{data: data}
	if !count.run() {
		return nil, false
	}
	fill := batchScan{
		data:   data,
		fill:   true,
		verts:  make([]uint64, count.nverts),
		calls:  make([]Call, count.ncalls),
		rounds: make([]Round, count.nrounds),
	}
	fill.run()
	return fill.rounds, true
}

// batchScan is one pass of scanRoundBatch over data. The counting pass
// only advances the counters; the fill pass (fill set, slabs sized by
// the counting pass) also stores each vertex, call and round at its
// counter's index.
type batchScan struct {
	data []byte
	i    int
	fill bool

	verts  []uint64
	calls  []Call
	rounds []Round

	nverts, ncalls, nrounds int
}

// run scans the whole envelope, reporting whether it is canonical.
// Bytes after the closing brace are not examined.
func (s *batchScan) run() bool {
	if !s.skip('{') || !s.skip('"') || !bytes.HasPrefix(s.data[s.i:], []byte(`rounds"`)) {
		return false
	}
	s.i += len(`rounds"`)
	return s.skip(':') && s.skip('[') && s.list(s.round) && s.skip('}')
}

// round scans one round: a possibly empty array of paths.
func (s *batchScan) round() bool {
	first := s.ncalls
	if !s.skip('[') || !s.list(s.path) {
		return false
	}
	if s.fill {
		s.rounds[s.nrounds] = s.calls[first:s.ncalls:s.ncalls]
	}
	s.nrounds++
	return true
}

// list scans the rest of a possibly empty array whose '[' has been
// consumed, with item scanning each element.
func (s *batchScan) list(item func() bool) bool {
	if s.peek() == ']' {
		s.i++
		return true
	}
	for {
		if !item() {
			return false
		}
		if s.skip(']') {
			return true
		}
		if !s.skip(',') {
			return false
		}
	}
}

// path scans one call path of at least two vertices. It is the hot
// loop — a batch is mostly vertex literals — so it works on locals and
// writes the cursor and counters back once.
func (s *batchScan) path() bool {
	if !s.skip('[') {
		return false
	}
	data, i := s.data, s.i
	first, nv := s.nverts, s.nverts
	for {
		i = skipSpace(data, i)
		start := i
		var v uint64
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			v = v*10 + uint64(data[i]-'0') // wraps only past 19 digits, refused below
		}
		if !decimalUint64(data[start:i]) {
			return false
		}
		if s.fill {
			s.verts[nv] = v
		}
		nv++
		if i = skipSpace(data, i); i == len(data) {
			return false
		}
		c := data[i]
		i++
		if c == ']' {
			break
		}
		if c != ',' {
			return false
		}
	}
	if nv-first < 2 {
		return false
	}
	s.i, s.nverts = i, nv
	if s.fill {
		s.calls[s.ncalls] = Call{Path: s.verts[first:nv:nv]}
	}
	s.ncalls++
	return true
}

// decimalUint64 reports whether lit is a JSON integer literal that
// encoding/json decodes into a uint64: "0", or a nonzero digit followed
// by digits, at most MaxUint64. The caller has already stopped lit at
// the first non-digit; whatever follows ('.', 'e') fails its separator
// check.
func decimalUint64(lit []byte) bool {
	switch n := len(lit); {
	case n == 0, n > 1 && lit[0] == '0':
		return false
	case n < len(maxUint64Digits):
		return true
	default:
		return n == len(maxUint64Digits) && string(lit) <= maxUint64Digits
	}
}

// maxUint64Digits is MaxUint64 in decimal: a literal of as many digits
// fits exactly when it does not sort after this one.
const maxUint64Digits = "18446744073709551615"

// skip consumes optional whitespace, then c, reporting whether c was
// there.
func (s *batchScan) skip(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// peek consumes optional whitespace and returns the next byte, or 0 at
// the end of data.
func (s *batchScan) peek() byte {
	s.i = skipSpace(s.data, s.i)
	if s.i == len(s.data) {
		return 0
	}
	return s.data[s.i]
}

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}
