package linecomm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
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
// whitespace anywhere — decodes without reflection, in one scan, into
// two slabs per batch (see scanRoundBatch).
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
// path at least two vertices long, in one validating and filling pass.
// It fills one vertex slab and one call slab, which every path and round
// aliases (capacity-capped, so appending to one never writes into the
// next). ok is false for any other input, which the caller hands to the
// reference decoder: the scanner never reports errors.
//
// The slabs are sized before the scan from vectorised byte counts of
// data up to its first '}' — the only one a canonical envelope holds —
// so bytes after the envelope cost no storage. A canonical envelope has
// at most commas+1 vertices. Its '[' bytes number 1+rounds+calls, and
// its adjacent "[[" pairs at most rounds+1 (the list opening its first
// round, each round opening its first call), so opens-pairs bounds the
// calls. Both bounds are exact on a compact envelope without empty
// rounds. Every vertex also takes at least two bytes and every call six,
// so neither slab outgrows what an envelope of that length can hold. An
// input that overruns a slab is not canonical and is declined.
func scanRoundBatch(data []byte) (rounds []Round, ok bool) {
	end := bytes.IndexByte(data, '}')
	if end < 0 {
		return nil, false
	}
	env := data[:end]
	commas := bytes.Count(env, []byte{','})
	verts := make([]uint64, min(commas+1, len(env)/2))
	opens, pairs := openBrackets(env)
	calls := make([]Call, max(0, min(opens-pairs, commas, len(env)/6)))
	var stack [16]Round // a batch's rounds, copied out exactly at the end
	rs := stack[:0]
	nv, nc := 0, 0

	c, i := token(data, 0)
	if c != '{' {
		return nil, false
	}
	if c, i = token(data, i); c != '"' || !bytes.HasPrefix(data[i:], []byte(`rounds"`)) {
		return nil, false
	}
	if c, i = token(data, i+len(`rounds"`)); c != ':' {
		return nil, false
	}
	if c, i = token(data, i); c != '[' {
		return nil, false
	}
	if c, j := token(data, i); c == ']' {
		i = j // no rounds
	} else {
		for {
			if c, i = token(data, i); c != '[' {
				return nil, false
			}
			first := nc
			if c, j := token(data, i); c == ']' {
				i = j // an empty round
			} else {
				for {
					if c, i = token(data, i); c != '[' {
						return nil, false
					}
					// The hot loop: a batch is mostly vertex literals.
					fv := nv
					for {
						i = skipSpace(data, i)
						start := i
						var v uint64
						for ; i < len(data) && data[i]-'0' <= 9; i++ {
							v = v*10 + uint64(data[i]-'0') // wraps only past 19 digits, refused below
						}
						if !decimalUint64(data[start:i]) || nv == len(verts) {
							return nil, false
						}
						verts[nv] = v
						nv++
						if c, i = token(data, i); c != ',' {
							break
						}
					}
					if c != ']' || nv-fv < 2 || nc == len(calls) {
						return nil, false
					}
					calls[nc] = Call{Path: verts[fv:nv:nv]}
					nc++
					if c, i = token(data, i); c != ',' {
						break
					}
				}
				if c != ']' {
					return nil, false
				}
			}
			rs = append(rs, calls[first:nc:nc])
			if c, i = token(data, i); c != ',' {
				break
			}
		}
		if c != ']' {
			return nil, false
		}
	}
	if c, _ = token(data, i); c != '}' {
		return nil, false
	}
	rounds = make([]Round, len(rs))
	copy(rounds, rs)
	return rounds, true
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

// openBrackets counts the '[' bytes of b, and the adjacent "[[" pairs
// (overlapping), eight bytes at a time.
func openBrackets(b []byte) (opens, pairs int) {
	var prev uint64 // bit 7 set when the byte before the word was '['
	for ; len(b) >= 8; b = b[8:] {
		m := openMask(binary.LittleEndian.Uint64(b))
		opens += bits.OnesCount64(m)
		pairs += bits.OnesCount64(m & (m<<8 | prev))
		prev = m >> 56
	}
	var tail [8]byte
	copy(tail[:], b)
	m := openMask(binary.LittleEndian.Uint64(tail[:]))
	return opens + bits.OnesCount64(m), pairs + bits.OnesCount64(m&(m<<8|prev))
}

// openMask sets bit 7 of each byte of w that is '[' and clears every
// other bit: the carry-free zero-byte test on w XOR "[[[[[[[[".
func openMask(w uint64) uint64 {
	const low7 = 0x7f7f7f7f7f7f7f7f
	x := w ^ 0x5b5b5b5b5b5b5b5b
	return ^(x&low7 + low7 | x | low7)
}

// token returns the first non-whitespace byte of data at or after i and
// the index just past it, or 0 and len(data) at the end of data.
func token(data []byte, i int) (c byte, next int) {
	if i = skipSpace(data, i); i == len(data) {
		return 0, i
	}
	return data[i], i + 1
}

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && data[i] <= ' ' && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}
