package schedio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"sort"

	"sparsehypercube/internal/linecomm"
)

// RoundRange decodes a contiguous, index-delimited slice of a plan's
// rounds off an io.ReaderAt — the unit of work of parallel round-range
// verification, local (PlanAt.Range) or remote (DecodeSpan over bytes
// shipped by RangeBytes). A RoundRange is single-use (Rounds may be
// consumed once) but independent: concurrent RoundRanges over one
// PlanAt share only the ReaderAt.
//
// The range decoder trusts the index no further than the streaming
// decoder would: after the rounds drain, CRC reports whether the range
// decoded cleanly — every round well formed, no early terminator, and
// the decode consuming exactly the byte span the index declared — and
// returns the CRC-32 of that span, so the caller can stitch the ranges
// back into the plan's stored checksum with PlanAt.CheckRangeCRCs.
type RoundRange struct {
	h          Header
	r          io.ReaderAt
	lo, hi     int
	start, end int64
	sc         *RoundScratch // decode storage; nil means the range's own

	crc     uint32
	noCRC   bool
	err     error
	claimed bool
	drained bool
}

// DisableCRC turns off checksum accumulation for this range's decode —
// for a second pass over a span whose CRC was already pinned, where
// only the drain status matters. Must be called before Rounds; CRC is
// then unavailable (use Err for the status).
func (r *RoundRange) DisableCRC() { r.noCRC = true }

// UseScratch makes the range decode into sc's storage instead of its
// own, so ranges decoded one after another on one goroutine grow one
// scratch between them. Must be called before Rounds; the yielded
// rounds then alias sc, which no other decode may use meanwhile.
func (r *RoundRange) UseScratch(sc *RoundScratch) { r.sc = sc }

// Range returns a decoder over rounds [lo, hi) of an indexed plan.
func (p *PlanAt) Range(lo, hi int) (*RoundRange, error) {
	if p.offs == nil {
		return nil, errors.New("schedio: plan has no round index")
	}
	if lo < 0 || hi > len(p.offs)-1 || lo >= hi {
		return nil, fmt.Errorf("schedio: round range [%d,%d) outside [0,%d)", lo, hi, len(p.offs)-1)
	}
	return &RoundRange{h: p.h, r: p.r, lo: lo, hi: hi, start: p.offs[lo], end: p.offs[hi]}, nil
}

// SplitRounds partitions the indexed rounds into at most n contiguous,
// non-empty ranges of about equal byte length, cut at round boundaries,
// and returns their bounds: range i is rounds [bounds[i], bounds[i+1]),
// bounds[0] is 0 and the last entry is NumRounds. Cut j sits at the
// round boundary nearest to j/n of the way through the round stream's
// bytes; targets that land on the same boundary share one cut, so there
// are fewer than n ranges when rounds are fewer or one round outweighs
// several targets. Nearest cuts bound every range of two or more rounds
// by 2/n of the stream — only a single round can be heavier.
//
// Round sizes are what makes this matter: minimum-time broadcast
// doubles the informed set every round, so the last round alone holds
// about half the plan's bytes and an equal-round-count split gives one
// range nearly all the work.
func (p *PlanAt) SplitRounds(n int) ([]int, error) {
	if p.offs == nil {
		return nil, errors.New("schedio: plan has no round index")
	}
	rounds := len(p.offs) - 1
	if rounds == 0 {
		return []int{0}, nil
	}
	n = max(1, min(n, rounds))
	base, total := p.offs[0], p.offs[rounds]-p.offs[0]
	bounds := make([]int, 1, n+1)
	for j := 1; j < n; j++ {
		target := base + total*int64(j)/int64(n)
		i := sort.Search(rounds+1, func(i int) bool { return p.offs[i] >= target })
		if i > 0 && target-p.offs[i-1] <= p.offs[i]-target {
			i--
		}
		if i > bounds[len(bounds)-1] && i < rounds {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, rounds), nil
}

// RangeBytes returns the raw encoded byte span of rounds [lo, hi) — the
// unit a distributed-verification coordinator ships to a remote range
// verifier, decoded there by DecodeSpan. The span is exactly the bytes
// the index delimits; its CRC-32 is the RangeCRC contribution of the
// same range.
func (p *PlanAt) RangeBytes(lo, hi int) ([]byte, error) {
	if p.offs == nil {
		return nil, errors.New("schedio: plan has no round index")
	}
	if lo < 0 || hi > len(p.offs)-1 || lo >= hi {
		return nil, fmt.Errorf("schedio: round range [%d,%d) outside [0,%d)", lo, hi, len(p.offs)-1)
	}
	// The span length is bounded by the file size: offsets were checked
	// strictly increasing and below the index start when the plan opened.
	buf := make([]byte, p.offs[hi]-p.offs[lo])
	if _, err := p.r.ReadAt(buf, p.offs[lo]); err != nil {
		return nil, fmt.Errorf("schedio: reading rounds [%d,%d): %w", lo, hi, err)
	}
	return buf, nil
}

// DecodeSpan returns a decoder over rounds [lo, hi) of a detached byte
// span, as produced by RangeBytes on the plan whose header is h — the
// worker side of shipped-range verification. The span is untrusted: the
// decode applies every structural bound of the streaming decoder, must
// yield exactly hi-lo rounds, and must consume the span exactly (see
// RoundRange).
func DecodeSpan(h Header, span []byte, lo, hi int) (*RoundRange, error) {
	if lo < 0 || lo >= hi {
		return nil, fmt.Errorf("schedio: round range [%d,%d) is empty", lo, hi)
	}
	return &RoundRange{h: h, r: bytes.NewReader(span), lo: lo, hi: hi, start: 0, end: int64(len(span))}, nil
}

// Bytes returns the byte length of the range's indexed span.
func (r *RoundRange) Bytes() int64 { return r.end - r.start }

// Rounds returns the range's round stream, decoded off the span the
// index declared. It is single use; the yielded round and the paths
// inside it are reused between iterations (linecomm.CloneRound retains
// one). Stopping early leaves the range's CRC status unresolved.
func (r *RoundRange) Rounds() iter.Seq[linecomm.Round] {
	return func(yield func(linecomm.Round) bool) {
		if r.claimed {
			r.err = errors.New("schedio: round range already consumed")
			return
		}
		r.claimed = true
		d := spanDecoder(r.h, io.NewSectionReader(r.r, r.start, r.end-r.start), r.end-r.start)
		if r.noCRC {
			d.src.stopCRC() // every later fold no-ops: no checksum work
		}
		sc := r.sc
		if sc == nil {
			sc = new(RoundScratch)
		}
		for i := r.lo; i < r.hi; i++ {
			round, done, err := d.readRound(sc)
			if err != nil {
				r.err = err
				return
			}
			if done {
				r.err = fmt.Errorf("schedio: round %d: unexpected terminator", i)
				return
			}
			if !yield(round) {
				return
			}
		}
		if d.src.n != r.end-r.start {
			r.err = fmt.Errorf("schedio: rounds [%d,%d): decoded %d of %d bytes", r.lo, r.hi, d.src.n, r.end-r.start)
			return
		}
		if !r.noCRC {
			d.src.stopCRC()
			r.crc = d.src.crc
		}
		r.drained = true
	}
}

// Err reports whether the range decoded cleanly and completely: nil
// after a full drain of Rounds, otherwise the decode failure, the
// terminator or byte-span disagreement between index and stream, or an
// incomplete-drain error.
func (r *RoundRange) Err() error {
	if r.err != nil {
		return r.err
	}
	if !r.drained {
		return errors.New("schedio: round range not fully drained")
	}
	return nil
}

// CRC returns the CRC-32 of the range's byte span after a clean,
// complete drain of Rounds, or the error that makes the range
// untrustworthy (see Err).
func (r *RoundRange) CRC() (uint32, error) {
	if err := r.Err(); err != nil {
		return 0, err
	}
	if r.noCRC {
		return 0, errors.New("schedio: checksum accumulation disabled for this range")
	}
	return r.crc, nil
}

// RangeCRC pairs one round range's CRC-32 with its byte length, the
// per-worker integrity contribution consumed by CheckRangeCRCs.
type RangeCRC struct {
	CRC   uint32
	Bytes int64
}

// CheckRangeCRCs verifies the plan's stored checksum from per-range
// CRCs: parts must be the RangeCRC results of contiguous ranges
// covering rounds [0, NumRounds) in order. It combines them with the
// header bytes and the stream terminator, checks the terminator byte
// itself, and compares against the stored footer — together with each
// range's own clean-drain status this gives exactly the integrity
// guarantee of one serial decode, at W-way parallel cost.
func (p *PlanAt) CheckRangeCRCs(parts []RangeCRC) error {
	if p.offs == nil {
		return errors.New("schedio: plan has no round index")
	}
	head := make([]byte, p.offs[0])
	if _, err := p.r.ReadAt(head, 0); err != nil {
		return fmt.Errorf("schedio: reading header: %w", err)
	}
	crc := crc32.ChecksumIEEE(head)
	total := p.offs[0]
	for _, part := range parts {
		crc = crc32Combine(crc, part.CRC, part.Bytes)
		total += part.Bytes
	}
	if last := p.offs[len(p.offs)-1]; total != last {
		return fmt.Errorf("schedio: ranges cover bytes [%d,%d), round stream is [%d,%d)", p.offs[0], total, p.offs[0], last)
	}
	// The index pinned the terminator at planSize-5 when the plan was
	// opened, so exactly one marker byte and the 4-byte checksum remain.
	var tail [5]byte
	if _, err := p.r.ReadAt(tail[:], total); err != nil {
		return fmt.Errorf("schedio: reading footer: %w", err)
	}
	if tail[0] != 0 {
		return fmt.Errorf("schedio: round stream not terminated at offset %d", total)
	}
	crc = crc32.Update(crc, crc32.IEEETable, tail[:1])
	if stored := binary.LittleEndian.Uint32(tail[1:]); stored != crc {
		return fmt.Errorf("schedio: checksum mismatch: stored %08x, computed %08x", stored, crc)
	}
	return nil
}
