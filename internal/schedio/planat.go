package schedio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sparsehypercube/internal/linecomm"
)

// PlanAt is a random-access view of one plan file through an io.ReaderAt
// — the serving form of the codec. Opening reads only the fixed-size
// index trailer (when present) and the header; rounds decode on demand.
//
// A PlanAt is safe for concurrent use as long as the underlying ReaderAt
// is (bytes.Reader and os.File both are): every NewDecoder and Round
// call works on its own io.SectionReader and its own scratch, so many
// verifiers can replay one shared copy of a served plan file — an mmap'd
// file shares a single page-cache copy across processes, an in-memory
// upload a single byte slice across sessions.
type PlanAt struct {
	r        io.ReaderAt
	size     int64 // whole file, index included
	planSize int64 // the plan proper, through its checksum
	body     int64 // offset of the first round marker
	h        Header
	offs     []int64 // nil without an index; else marker offsets + terminator
}

// OpenPlanAt opens a plan file of the given size. It validates the
// header, and — when the file carries a round index — the index's
// checksum, monotonicity, and agreement with the plan boundaries. The
// round stream itself is not scanned; use Check once on untrusted input.
func OpenPlanAt(r io.ReaderAt, size int64) (*PlanAt, error) {
	p := &PlanAt{r: r, size: size, planSize: size}
	offs, planSize, err := readIndexTrailer(r, size)
	if err != nil {
		return nil, err
	}
	if offs != nil {
		p.offs, p.planSize = offs, planSize
	}
	d, err := NewDecoder(io.NewSectionReader(r, 0, p.planSize))
	if err != nil {
		return nil, err
	}
	p.h = d.Header()
	p.body = d.Consumed()
	if p.offs != nil {
		if p.offs[0] != p.body {
			return nil, fmt.Errorf("schedio: index first offset %d, header ends at %d", p.offs[0], p.body)
		}
		// The terminator is a single zero byte followed by the 4-byte plan
		// checksum, so the index's last entry is pinned exactly.
		if last := p.offs[len(p.offs)-1]; last != p.planSize-5 {
			return nil, fmt.Errorf("schedio: index terminator offset %d, plan ends at %d", last, p.planSize-5)
		}
	}
	return p, nil
}

// readIndexTrailer looks for a round index at the end of the file. A
// file without one (the trailer bytes don't resolve to an index magic)
// is simply unindexed; a file with a recognisable but corrupt index is
// an error. Allocation is bounded by the file's real size: the declared
// trailer length is checked against size before any buffer is made.
func readIndexTrailer(r io.ReaderAt, size int64) (offs []int64, planSize int64, err error) {
	// magic + count + one offset + crc is the smallest possible index;
	// anything shorter (or longer than the file) means no index.
	minIndex := int64(len(indexMagic)) + 1 + 1 + 4
	minPlan := int64(len(magic)) + 1 + 4 // magic, version, checksum, at the very least
	if size < minPlan+minIndex+4 {
		return nil, size, nil
	}
	var quad [4]byte
	if _, err := r.ReadAt(quad[:], size-4); err != nil {
		return nil, 0, fmt.Errorf("schedio: reading index trailer: %w", err)
	}
	ilen := int64(binary.LittleEndian.Uint32(quad[:]))
	if ilen < minIndex || ilen+4+minPlan > size {
		return nil, size, nil
	}
	start := size - 4 - ilen
	buf := make([]byte, ilen)
	if _, err := r.ReadAt(buf, start); err != nil {
		return nil, 0, fmt.Errorf("schedio: reading index: %w", err)
	}
	if string(buf[:len(indexMagic)]) != indexMagic {
		return nil, size, nil
	}
	body, stored := buf[:ilen-4], binary.LittleEndian.Uint32(buf[ilen-4:])
	if got := crc32.ChecksumIEEE(body); got != stored {
		return nil, 0, fmt.Errorf("schedio: index checksum mismatch: stored %08x, computed %08x", stored, got)
	}
	// Parse the varints through the one canonical-form decoder, so the
	// random-access and streaming paths can never disagree on what a
	// valid index is.
	d := spanDecoder(Header{}, bytes.NewReader(body[len(indexMagic):]), int64(len(body)-len(indexMagic)))
	nr, err := d.uvarint("index round count")
	if err != nil {
		return nil, 0, err
	}
	if nr > maxIndexRounds {
		return nil, 0, fmt.Errorf("schedio: index declares %d rounds (max %d)", nr, uint64(maxIndexRounds))
	}
	// Offsets grow as index bytes are parsed (each entry is at least one
	// byte), never preallocated from the declared count.
	var prev int64
	for i := uint64(0); i <= nr; i++ {
		v, err := d.uvarint("index offset")
		if err != nil {
			return nil, 0, err
		}
		off := int64(v)
		if i > 0 {
			off = prev + int64(v)
		}
		if off < 0 || off >= start || (i > 0 && off <= prev) {
			return nil, 0, fmt.Errorf("schedio: index offset %d out of order or out of range", i)
		}
		offs = append(offs, off)
		prev = off
	}
	if _, err := d.src.readByte(); err != io.EOF {
		return nil, 0, errors.New("schedio: trailing bytes inside index")
	}
	return offs, start, nil
}

// Header returns the plan's header.
func (p *PlanAt) Header() Header { return p.h }

// Size returns the file size the plan was opened with, index included.
func (p *PlanAt) Size() int64 { return p.size }

// Indexed reports whether the file carries a round index.
func (p *PlanAt) Indexed() bool { return p.offs != nil }

// NumRounds returns the indexed round count, or -1 when the file has no
// index (the count is then only known by streaming the rounds).
func (p *PlanAt) NumRounds() int {
	if p.offs == nil {
		return -1
	}
	return len(p.offs) - 1
}

// NewDecoder returns a fresh streaming decoder over the plan. Each call
// is independent — concurrent decoders share only the ReaderAt.
func (p *PlanAt) NewDecoder() (*Decoder, error) {
	return NewDecoder(io.NewSectionReader(p.r, 0, p.planSize))
}

// Round random-accesses round i (zero-based) through the index and
// returns it in freshly allocated storage. The round bytes are bounds-
// checked by the index (validated at open time) but not re-checksummed;
// run Check once if the file is untrusted.
func (p *PlanAt) Round(i int) (linecomm.Round, error) {
	if p.offs == nil {
		return nil, errors.New("schedio: plan has no round index")
	}
	if i < 0 || i >= len(p.offs)-1 {
		return nil, fmt.Errorf("schedio: round %d outside [0,%d)", i, len(p.offs)-1)
	}
	lo, hi := p.offs[i], p.offs[i+1]
	d := spanDecoder(p.h, io.NewSectionReader(p.r, lo, hi-lo), hi-lo)
	var sc RoundScratch
	round, done, err := d.readRound(&sc)
	if err != nil {
		return nil, err
	}
	if done {
		return nil, fmt.Errorf("schedio: round %d: unexpected terminator", i)
	}
	if d.src.n != hi-lo {
		return nil, fmt.Errorf("schedio: round %d: decoded %d of %d bytes", i, d.src.n, hi-lo)
	}
	return linecomm.CloneRound(round), nil
}

// Check streams the whole file through the decoder once, verifying
// round structure, the plan checksum, and — when present — the index
// against the actual round boundaries. It returns the round count.
// Serving processes run it at upload time so everything after trusts
// the file.
//
// Check also requires the streaming and random-access interpretations
// of the file to agree on whether an index exists and how many rounds
// it covers: CRC-32 is forgeable, so a crafted file could otherwise
// present one plan to a stream decoder and a different (prefix) plan
// plus embedded index to the trailer heuristic. Such a file fails here.
func (p *PlanAt) Check() (int, error) {
	d, err := NewDecoder(io.NewSectionReader(p.r, 0, p.size))
	if err != nil {
		return 0, err
	}
	rounds := 0
	for range d.Rounds() {
		rounds++
	}
	if err := d.Err(); err != nil {
		return rounds, err
	}
	if d.HasIndex() != p.Indexed() {
		return rounds, errors.New("schedio: index trailer inconsistent with stream decode")
	}
	if p.offs != nil && rounds != len(p.offs)-1 {
		return rounds, fmt.Errorf("schedio: index declares %d rounds, stream has %d", len(p.offs)-1, rounds)
	}
	return rounds, nil
}
