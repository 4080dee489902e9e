// Package schedio implements the on-disk round format for k-line call
// plans: a compact binary encoding of a schedule's header and round
// stream that can be written straight off a round iterator (never
// materialising the schedule) and replayed, round by round, into the
// streaming validator. Produce a million-vertex schedule once, serve and
// re-verify it many times.
//
// # Format
//
// The normative, externally consumable specification of the wire format
// — byte-level worked examples (executed by format_doc_test.go, so the
// spec cannot drift from this code), the index trailer, and the
// versioning/compatibility policy — is docs/FORMAT.md. In brief:
//
// All integers are unsigned LEB128 varints in canonical (minimal) form;
// the decoder rejects non-minimal encodings, so every valid byte stream
// has exactly one decoding and re-encoding a decoded plan reproduces the
// input byte for byte.
//
//	magic   "SHCP" (4 bytes)
//	uvarint version (currently 1)
//	uvarint k                      call-length bound
//	uvarint len(dims)              parameter vector length (== k)
//	uvarint dims[i] ...            strictly increasing, dims[last] = n
//	uvarint len(scheme)            scheme name length (<= 64)
//	bytes   scheme                 scheme identifier ("broadcast", ...)
//	uvarint source                 distinguished originator vertex
//	rounds:
//	  uvarint numCalls+1           0 terminates the round stream
//	  per call:
//	    uvarint pathLen
//	    uvarint path[0]            (when pathLen > 0)
//	    uvarint path[i-1]^path[i]  pathLen-1 XOR deltas
//	uint32  CRC-32 (IEEE), little endian, of every preceding byte
//
// The checksum must be the end of the plan: trailing bytes are treated
// as corruption (an appended-to file), so one plan file holds exactly
// one plan — with one exception, the optional round index a serving
// process uses for random access (see WriteIndexed):
//
//	magic   "SHIX" (4 bytes)
//	uvarint numRounds
//	uvarint offset[0]              byte offset of round 1's marker
//	uvarint offset[i]-offset[i-1]  numRounds deltas; the last entry is
//	                               the offset of the terminating 0
//	uint32  CRC-32 (IEEE), little endian, of the index bytes above
//	uint32  index length in bytes (magic through index CRC), little
//	        endian — a fixed-size trailer, so an io.ReaderAt finds the
//	        index from the file end without scanning the plan
//
// The streaming decoder cross-checks an index against the round
// boundaries it actually saw, so a file whose index disagrees with its
// round stream never decodes cleanly.
//
// Hypercube call paths flip one dimension bit per hop, so the XOR deltas
// are single powers of two and encode in one or two bytes for the low
// (wide-round) dimensions — the bulk of any broadcast schedule.
//
// The decoder never trusts counts for allocation: storage grows only as
// call data is actually read, so truncated or hostile headers fail
// cleanly with an error instead of panicking or over-allocating.
//
// Both directions work a call at a time. The encoder appends a whole
// call and checks for a flush once per call. The decoder decodes whole
// calls straight from its read buffer on a fast path; a call that
// crosses the buffer's refill edge, or breaks any rule, is left
// unconsumed for the byte-at-a-time reference path, which decodes it
// and words every error. The fast path changes neither the bytes
// accepted nor a single error message (FuzzDecodeChunked holds the two
// paths to identical outcomes).
package schedio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"iter"
	"sync"

	"sparsehypercube/internal/linecomm"
)

const (
	// Version is the current format version.
	Version = 1

	magic      = "SHCP"
	indexMagic = "SHIX"

	// maxDims caps the parameter vector length the codec accepts. Header
	// fields sized from wire varints (dims, scheme name) stay under these
	// fixed small bounds, so header decoding allocates O(1) bytes no
	// matter what counts a hostile header declares.
	maxDims = 64
	// maxDim caps individual dimension values (core.MaxN is 40).
	maxDim = 64
	// maxSchemeName caps the scheme identifier length.
	maxSchemeName = 64
	// maxPathLen caps a single call path; the paper's schemes use at most
	// k+1 vertices, so this is purely a hostile-input bound.
	maxPathLen = 1 << 20
	// maxRoundCalls caps a single round's declared call count. A round can
	// never hold more calls than half the largest cube's order, and a file
	// actually containing that many calls would be petabytes; the bound
	// exists so a tiny hostile file declaring a huge count fails
	// immediately with a clean error. Call storage itself only ever grows
	// as call bytes are read, never from this declared count.
	maxRoundCalls = 1 << 44
	// maxIndexRounds caps the declared round count in a round index.
	maxIndexRounds = 1 << 32
)

// Header identifies the plan stored in a file: the construction
// parameters of the cube the rounds were generated on, the scheme that
// produced them, and its originator.
type Header struct {
	K      int
	Dims   []int
	Scheme string
	Source uint64
}

func (h Header) validate() error {
	if h.K < 1 || h.K > maxDims {
		return fmt.Errorf("schedio: k = %d outside [1,%d]", h.K, maxDims)
	}
	if len(h.Dims) != h.K {
		return fmt.Errorf("schedio: %d dims for k = %d (want exactly k)", len(h.Dims), h.K)
	}
	prev := 0
	for _, d := range h.Dims {
		if d <= prev || d > maxDim {
			return fmt.Errorf("schedio: dims %v not strictly increasing in [1,%d]", h.Dims, maxDim)
		}
		prev = d
	}
	if len(h.Scheme) > maxSchemeName {
		return fmt.Errorf("schedio: scheme name %d bytes long (max %d)", len(h.Scheme), maxSchemeName)
	}
	return nil
}

// Write encodes h followed by the round stream onto w and returns the
// number of bytes written. It consumes rounds as they are produced —
// yielded rounds may reuse storage between iterations — so a schedule
// never has to be materialised to be stored.
func Write(w io.Writer, h Header, rounds iter.Seq[linecomm.Round]) (int64, error) {
	return writePlan(w, h, rounds, nil)
}

// WriteIndexed is Write plus a round index appended after the checksum:
// the byte offset of every round marker (and the stream terminator),
// delta-encoded, checksummed, and closed by a fixed-size length trailer.
// An indexed file replays exactly like a plain one through any decoder
// in this package, and additionally supports per-round random access
// through OpenPlanAt — the form a serving process wants, where many
// concurrent verifiers share one copy of the file.
func WriteIndexed(w io.Writer, h Header, rounds iter.Seq[linecomm.Round]) (int64, error) {
	var offs []int64
	n, err := writePlan(w, h, rounds, &offs)
	if err != nil {
		return n, err
	}
	idx := appendIndex(nil, offs)
	ni, err := w.Write(idx)
	n += int64(ni)
	if err != nil {
		return n, fmt.Errorf("schedio: writing index: %w", err)
	}
	return n, nil
}

// writePlan encodes the plan proper, recording the byte offset of every
// round marker plus the terminator into offs when non-nil.
func writePlan(w io.Writer, h Header, rounds iter.Seq[linecomm.Round], offs *[]int64) (int64, error) {
	if err := h.validate(); err != nil {
		return 0, err
	}
	e := &encoder{w: w, buf: make([]byte, 0, encoderFlushAt+encoderSlack)}
	e.bytes([]byte(magic))
	e.uvarint(Version)
	e.uvarint(uint64(h.K))
	e.uvarint(uint64(len(h.Dims)))
	for _, d := range h.Dims {
		e.uvarint(uint64(d))
	}
	e.uvarint(uint64(len(h.Scheme)))
	e.bytes([]byte(h.Scheme))
	e.uvarint(h.Source)
	for round := range rounds {
		if offs != nil {
			*offs = append(*offs, e.offset())
		}
		e.uvarint(uint64(len(round)) + 1)
		for _, call := range round {
			e.call(call.Path)
		}
		if e.err != nil {
			break // stop consuming the producer once the sink is dead
		}
	}
	if offs != nil {
		*offs = append(*offs, e.offset())
	}
	e.uvarint(0)
	e.flush()
	if e.err != nil {
		return e.n, e.err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], e.crc)
	nf, err := w.Write(foot[:])
	e.n += int64(nf)
	if err != nil {
		return e.n, fmt.Errorf("schedio: writing checksum: %w", err)
	}
	return e.n, nil
}

// appendIndex appends the round-index section for the recorded offsets
// (round markers plus terminator, as writePlan records them).
func appendIndex(buf []byte, offs []int64) []byte {
	start := len(buf)
	buf = append(buf, indexMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(offs)-1))
	var prev int64
	for i, off := range offs {
		if i == 0 {
			buf = binary.AppendUvarint(buf, uint64(off))
		} else {
			buf = binary.AppendUvarint(buf, uint64(off-prev))
		}
		prev = off
	}
	crc := crc32.ChecksumIEEE(buf[start:])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return binary.LittleEndian.AppendUint32(buf, uint32(len(buf)-start))
}

// Encode is Write over a materialised schedule.
func Encode(w io.Writer, h Header, s *linecomm.Schedule) (int64, error) {
	return Write(w, h, s.Stream())
}

// EncodeIndexed is WriteIndexed over a materialised schedule.
func EncodeIndexed(w io.Writer, h Header, s *linecomm.Schedule) (int64, error) {
	return WriteIndexed(w, h, s.Stream())
}

// encoder buffers output and folds the running CRC at flush boundaries.
type encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   int64
	err error
}

// The encoder flushes once its buffer reaches encoderFlushAt bytes. It
// checks after each call, so the buffer is made encoderSlack bytes
// longer: room for the call or scheme name that crosses the mark,
// unless a path is unusually long.
const (
	encoderFlushAt = 32 << 10
	encoderSlack   = 1 << 10
)

func (e *encoder) flush() {
	if len(e.buf) == 0 || e.err != nil {
		e.buf = e.buf[:0]
		return
	}
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	n, err := e.w.Write(e.buf)
	e.n += int64(n)
	if err != nil {
		e.err = fmt.Errorf("schedio: %w", err)
	}
	e.buf = e.buf[:0]
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
	if len(e.buf) >= encoderFlushAt {
		e.flush()
	}
}

// call appends one call — its path length, first vertex and XOR deltas
// — and checks for a flush once, after the whole call.
func (e *encoder) call(path []uint64) {
	buf := binary.AppendUvarint(e.buf, uint64(len(path)))
	var prev uint64
	for _, v := range path {
		buf = binary.AppendUvarint(buf, prev^v) // prev is 0 for the first vertex
		prev = v
	}
	e.buf = buf
	if len(buf) >= encoderFlushAt {
		e.flush()
	}
}

func (e *encoder) bytes(b []byte) {
	e.buf = append(e.buf, b...)
	if len(e.buf) >= encoderFlushAt {
		e.flush()
	}
}

// offset returns the logical write position: bytes flushed plus bytes
// still buffered.
func (e *encoder) offset() int64 { return e.n + int64(len(e.buf)) }

// Decoder reads a plan back: the header eagerly (at NewDecoder time), the
// rounds lazily through a single-use iterator that reuses its buffers
// between rounds. After the iterator is drained, Err reports whether the
// stream decoded cleanly and the trailing checksum matched.
//
// A Decoder is single-use but safe against concurrent misuse: Err may be
// called from any goroutine, and a second (even concurrent) Rounds call
// fails with a clean error instead of racing on the underlying reader.
//
// Rounds decode through a read buffer of 32 KiB, or of the span's
// length for a shorter round range. Calls wholly inside it
// take the fast path (decodeCalls); the rest — a call crossing the
// refill edge, or one the fast path finds anything wrong with — take
// the byte-at-a-time reference path (uvarint), so how the reader
// chunks its bytes never changes the rounds, the error or Consumed.
type Decoder struct {
	src byteSource
	h   Header

	mu       sync.Mutex
	err      error
	consumed bool
	hasIndex bool

	// roundOffs records the byte offset of every round marker seen, plus
	// the terminator, to cross-check a trailing index. One word per round
	// actually read, so growth stays proportional to bytes consumed.
	roundOffs []int64
}

// NewDecoder reads and validates the header from r. The returned decoder
// reads from r incrementally; r must not be read from concurrently.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := spanDecoder(Header{}, r, readBufSize)
	var m [4]byte
	if err := d.src.readFull(m[:]); err != nil {
		return nil, fmt.Errorf("schedio: reading magic: %w", err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("schedio: bad magic %q", m[:])
	}
	v, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("schedio: unsupported version %d (have %d)", v, Version)
	}
	k, err := d.uvarint("k")
	if err != nil {
		return nil, err
	}
	nd, err := d.uvarint("dims length")
	if err != nil {
		return nil, err
	}
	if nd < 1 || nd > maxDims {
		return nil, fmt.Errorf("schedio: dims length %d outside [1,%d]", nd, maxDims)
	}
	dims := make([]int, nd)
	for i := range dims {
		dv, err := d.uvarint("dim")
		if err != nil {
			return nil, err
		}
		if dv < 1 || dv > maxDim {
			return nil, fmt.Errorf("schedio: dim %d outside [1,%d]", dv, maxDim)
		}
		dims[i] = int(dv)
	}
	nameLen, err := d.uvarint("scheme name length")
	if err != nil {
		return nil, err
	}
	if nameLen > maxSchemeName {
		return nil, fmt.Errorf("schedio: scheme name %d bytes long (max %d)", nameLen, maxSchemeName)
	}
	name := make([]byte, nameLen)
	if err := d.src.readFull(name); err != nil {
		return nil, fmt.Errorf("schedio: reading scheme name: %w", err)
	}
	source, err := d.uvarint("source")
	if err != nil {
		return nil, err
	}
	d.h = Header{K: int(k), Dims: dims, Scheme: string(name), Source: source}
	if err := d.h.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Header returns the decoded header.
func (d *Decoder) Header() Header { return d.h }

// Consumed returns the number of bytes read off the underlying reader so
// far (buffered-but-unparsed bytes excluded).
func (d *Decoder) Consumed() int64 { return d.src.n }

// Err returns the first decode error, or nil when the stream (as far as
// it has been consumed) decoded cleanly. A fully drained round iterator
// additionally implies the trailing checksum matched. Err is safe to
// call concurrently.
func (d *Decoder) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// HasIndex reports whether the stream carried a (verified) round index
// after its checksum. Meaningful only after the round iterator drained.
func (d *Decoder) HasIndex() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hasIndex
}

// setErr records the first decode error.
func (d *Decoder) setErr(err error) {
	if err == nil {
		return
	}
	d.mu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.mu.Unlock()
}

// claim marks the round stream consumed; a second claim — including a
// concurrent one — fails cleanly instead of racing on the reader.
func (d *Decoder) claim() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return false
	}
	if d.consumed {
		d.err = errors.New("schedio: round stream already consumed")
		return false
	}
	d.consumed = true
	return true
}

// Rounds returns the round stream. It is single use: a second call
// yields nothing and flags an error. The yielded round and the paths
// inside it are reused between iterations — use linecomm.CloneRound to
// retain one. Stopping early leaves the checksum unverified.
func (d *Decoder) Rounds() iter.Seq[linecomm.Round] {
	return func(yield func(linecomm.Round) bool) {
		if !d.claim() {
			return
		}
		var sc RoundScratch
		for {
			d.roundOffs = append(d.roundOffs, d.src.n)
			round, done, err := d.readRound(&sc)
			if err != nil {
				d.setErr(err)
				return
			}
			if done {
				d.setErr(d.checkFooter())
				return
			}
			if !yield(round) {
				return
			}
		}
	}
}

// RoundScratch is the storage a round decode reuses between rounds: the
// path arena and the round slice itself. Both grow only as call bytes
// are actually read off the wire — never from a declared count — so a
// hostile header cannot force allocation beyond a fixed multiple of the
// bytes it backs with data. Both grow by doubling: broadcast rounds
// double too, so a decode allocates about twice its largest round in
// all, where the runtime's 1.25x growth of large slices would allocate
// about five times it. A call's path aliases the arena array that was
// current when the call was decoded; growth copies the arena but never
// writes the old array again, so earlier paths stay intact.
//
// Most calls decode on a fast path straight from the decoder's read
// buffer (decodeCalls); it grows the arena only for calls whose bytes
// are already buffered, so the bound above holds for it too.
//
// The zero value is ready to use. Decoders keep their own; a caller
// that decodes several ranges one after another can share one through
// RoundRange.UseScratch, so the storage grows once, not per range.
type RoundScratch struct {
	round linecomm.Round
	arena []uint64
}

// appendDoubling is append that doubles a full slice's capacity. It
// sizes the new array itself: asked to double a full slice of 256 or
// more elements, append and slices.Grow take the runtime's large-slice
// growth steps, which land near 2.4x.
func appendDoubling[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(2*len(s), 64)), s...)
	}
	return append(s, v)
}

// readRound decodes one round into sc's reused storage. done is true at
// the stream terminator (round is nil there).
func (d *Decoder) readRound(sc *RoundScratch) (round linecomm.Round, done bool, err error) {
	marker, err := d.uvarint("round header")
	if err != nil {
		return nil, false, err
	}
	if marker == 0 {
		return nil, true, nil
	}
	numCalls := marker - 1
	if numCalls > maxRoundCalls {
		return nil, false, fmt.Errorf("schedio: round declares %d calls (max %d)", numCalls, uint64(maxRoundCalls))
	}
	sc.arena = sc.arena[:0]
	sc.round = sc.round[:0]
	for ci := uint64(0); ci < numCalls; ci++ {
		if k := d.decodeCalls(sc, numCalls-ci); k > 0 {
			ci += k - 1
			continue
		}
		// The reference path: one call, byte at a time, refilling the
		// buffer as needed. It words every decode error.
		plen, err := d.uvarint("path length")
		if err != nil {
			return nil, false, err
		}
		if plen > maxPathLen {
			return nil, false, fmt.Errorf("schedio: path length %d exceeds %d", plen, maxPathLen)
		}
		base := len(sc.arena)
		var prev uint64
		for i := uint64(0); i < plen; i++ {
			v, err := d.uvarint("path vertex")
			if err != nil {
				return nil, false, err
			}
			if i > 0 {
				v ^= prev // stored as XOR delta from the previous hop
			}
			sc.arena = appendDoubling(sc.arena, v)
			prev = v
		}
		end := len(sc.arena)
		sc.round = appendDoubling(sc.round, linecomm.Call{Path: sc.arena[base:end:end]})
	}
	return sc.round, false, nil
}

// decodeCalls is readRound's fast path. It decodes up to want whole
// calls straight from the bytes already in the read buffer and returns
// how many it decoded. It stops before the first call it cannot finish
// there — a call crossing the buffer's refill edge, or any anomaly the
// reference path would report (a non-canonical or overflowing varint, a
// path over maxPathLen) — and consumes none of that call's bytes, so
// the byte-at-a-time path decodes it next and words any error exactly
// as it always has.
//
// A call's arena storage is grown only once its declared length fits
// in the buffered bytes (every vertex takes at least one byte), so the
// fast path never allocates for bytes it has not read.
func (d *Decoder) decodeCalls(sc *RoundScratch, want uint64) uint64 {
	s := &d.src
	buf := s.buf[:s.lim]
	pos := s.pos
	arena, round := sc.arena, sc.round
	var done uint64
calls:
	for ; done < want; done++ {
		p := pos
		var plen uint64
		if p < len(buf) && buf[p] < 0x80 {
			plen = uint64(buf[p])
			p++
		} else if plen, p = bufUvarint(buf, p); p < 0 {
			break
		}
		if plen > maxPathLen || plen > uint64(len(buf)-p) {
			break
		}
		base := len(arena)
		if cap(arena)-base < int(plen) { // double, as appendDoubling does
			arena = append(make([]uint64, 0, max(2*cap(arena), 64, base+int(plen))), arena...)
		}
		arena = arena[:base+int(plen)]
		var prev uint64
		for i := base; i < len(arena); i++ {
			// A canonical 1-, 2- or 3-byte varint — every vertex and
			// delta of a cube up to 2^21 vertices — decodes inline.
			var v uint64
			switch r := buf[p:]; {
			case len(r) >= 1 && r[0] < 0x80:
				v = uint64(r[0])
				p++
			case len(r) >= 2 && r[1] < 0x80 && r[1] != 0:
				v = uint64(r[0]&0x7f) | uint64(r[1])<<7
				p += 2
			case len(r) >= 3 && r[1] >= 0x80 && r[2] < 0x80 && r[2] != 0:
				v = uint64(r[0]&0x7f) | uint64(r[1]&0x7f)<<7 | uint64(r[2])<<14
				p += 3
			default:
				if v, p = bufUvarint(buf, p); p < 0 {
					arena = arena[:base]
					break calls
				}
			}
			prev ^= v // the first vertex is stored whole, the rest as XOR deltas
			arena[i] = prev
		}
		end := len(arena)
		round = appendDoubling(round, linecomm.Call{Path: arena[base:end:end]})
		pos = p
	}
	sc.arena, sc.round = arena, round
	s.n += int64(pos - s.pos)
	s.pos = pos
	return done
}

// bufUvarint decodes the varint at b[p:] and returns it with the offset
// just past it, or a negative offset when the varint is not wholly
// inside b or breaks a rule of Decoder.uvarint (canonical form, no
// uint64 overflow) — then the reference path words the error.
func bufUvarint(b []byte, p int) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64 && p+i < len(b); i++ {
		c := b[p+i]
		if c < 0x80 {
			if (i == binary.MaxVarintLen64-1 && c > 1) || (i > 0 && c == 0) {
				return 0, -1
			}
			return x | uint64(c)<<s, p + i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, -1
}

// checkFooter folds the CRC over everything consumed so far, compares
// it with the trailing checksum, and requires the stream to end there —
// trailing bytes are corruption (an appended-to file), not padding —
// unless what follows is a round index, which is verified against the
// round boundaries the decode actually saw.
func (d *Decoder) checkFooter() error {
	d.src.stopCRC()
	var foot [4]byte
	if err := d.src.readFull(foot[:]); err != nil {
		return fmt.Errorf("schedio: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != d.src.crc {
		return fmt.Errorf("schedio: checksum mismatch: stored %08x, computed %08x", got, d.src.crc)
	}
	d.src.restartCRC() // the index carries its own checksum
	b, err := d.src.readByte()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("schedio: after checksum: %w", err)
	}
	var m [4]byte
	m[0] = b
	if err := d.src.readFull(m[1:]); err != nil || string(m[:]) != indexMagic {
		return errors.New("schedio: trailing data after checksum")
	}
	return d.checkIndexTrailer()
}

// checkIndexTrailer parses the round index that follows the plan
// checksum and requires it to agree exactly with the stream just
// decoded: same round count, same marker offsets, valid index checksum
// and length trailer, then end of stream.
func (d *Decoder) checkIndexTrailer() error {
	indexStart := d.src.n - int64(len(indexMagic))
	nr, err := d.uvarint("index round count")
	if err != nil {
		return err
	}
	if nr > maxIndexRounds {
		return fmt.Errorf("schedio: index declares %d rounds (max %d)", nr, uint64(maxIndexRounds))
	}
	if nr != uint64(len(d.roundOffs)-1) {
		return fmt.Errorf("schedio: index declares %d rounds, stream has %d", nr, len(d.roundOffs)-1)
	}
	var prev int64
	for i := range d.roundOffs {
		v, err := d.uvarint("index offset")
		if err != nil {
			return err
		}
		off := int64(v)
		if i > 0 {
			off = prev + int64(v)
		}
		if off != d.roundOffs[i] {
			return fmt.Errorf("schedio: index offset %d is %d, stream has %d", i, off, d.roundOffs[i])
		}
		prev = off
	}
	d.src.stopCRC()
	var buf [4]byte
	if err := d.src.readFull(buf[:]); err != nil {
		return fmt.Errorf("schedio: reading index checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != d.src.crc {
		return fmt.Errorf("schedio: index checksum mismatch: stored %08x, computed %08x", got, d.src.crc)
	}
	if err := d.src.readFull(buf[:]); err != nil {
		return fmt.Errorf("schedio: reading index length: %w", err)
	}
	if got, want := int64(binary.LittleEndian.Uint32(buf[:])), d.src.n-4-indexStart; got != want {
		return fmt.Errorf("schedio: index length field %d, index is %d bytes", got, want)
	}
	d.mu.Lock()
	d.hasIndex = true
	d.mu.Unlock()
	switch _, err := d.src.readByte(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("schedio: trailing data after index")
	default:
		return fmt.Errorf("schedio: after index: %w", err)
	}
}

// DecodeAll reads a complete plan into a materialised schedule — the
// convenience (and fuzzing) entry point; use Decoder for streaming.
func DecodeAll(r io.Reader) (Header, *linecomm.Schedule, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return Header{}, nil, err
	}
	s := &linecomm.Schedule{Source: d.h.Source}
	for round := range d.Rounds() {
		s.Rounds = append(s.Rounds, linecomm.CloneRound(round))
	}
	if err := d.Err(); err != nil {
		return Header{}, nil, err
	}
	return d.h, s, nil
}

// uvarint reads one canonical-form varint, rejecting non-minimal
// encodings so that decode-then-encode is the identity on valid streams.
func (d *Decoder) uvarint(what string) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.src.readByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("schedio: reading %s: %w", what, err)
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("schedio: reading %s: varint overflows uint64", what)
			}
			if i > 0 && b == 0 {
				return 0, fmt.Errorf("schedio: reading %s: non-canonical varint", what)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("schedio: reading %s: varint overflows uint64", what)
}

// readBufSize is a decoder's read buffer size; decoders over a known,
// shorter span size theirs to the span (spanDecoder).
const readBufSize = 32 << 10

// spanDecoder returns a decoder with header h over r, which holds size
// bytes: its read buffer is readBufSize, or size when the span is
// shorter, so decoding a short range allocates no more than it reads.
func spanDecoder(h Header, r io.Reader, size int64) *Decoder {
	return &Decoder{h: h, src: byteSource{r: r, buf: make([]byte, min(readBufSize, max(size, 1)))}}
}

// byteSource is a buffered reader that tracks the bytes actually
// consumed and folds them into a running CRC lazily (at refill and stop
// points), so per-byte reads stay cheap.
type byteSource struct {
	r        io.Reader
	buf      []byte // never empty
	pos, lim int
	crcdPos  int // buf[crcdPos:pos] has not been folded into crc yet
	crcDone  bool
	crc      uint32
	n        int64
}

func (s *byteSource) fold() {
	if !s.crcDone && s.pos > s.crcdPos {
		s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[s.crcdPos:s.pos])
	}
	s.crcdPos = s.pos
}

// stopCRC finalises the CRC over everything consumed so far; bytes
// consumed afterwards (the footer itself) are excluded.
func (s *byteSource) stopCRC() {
	s.fold()
	s.crcDone = true
}

// restartCRC begins a fresh CRC over the bytes consumed from here on —
// used at the index boundary, which is checksummed separately from the
// plan.
func (s *byteSource) restartCRC() {
	s.crcdPos = s.pos
	s.crcDone = false
	s.crc = 0
}

func (s *byteSource) fill() error {
	s.fold()
	s.pos, s.lim, s.crcdPos = 0, 0, 0
	for {
		n, err := s.r.Read(s.buf)
		if n > 0 {
			s.lim = n
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (s *byteSource) readByte() (byte, error) {
	if s.pos == s.lim {
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
	b := s.buf[s.pos]
	s.pos++
	s.n++
	return b, nil
}

func (s *byteSource) readFull(p []byte) error {
	for i := range p {
		b, err := s.readByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		p[i] = b
	}
	return nil
}
