// Fixture: boundedalloc — allocations sized from wire varints must be
// compared against a cap first (the maxRoundCalls discipline), or
// storage must grow only as bytes are read.
package decoder

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
)

const maxEntries = 1 << 20

// unboundedMake sizes an allocation straight from the wire.
func unboundedMake(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	return make([]byte, n), nil // want `allocation sized from varint-decoded "n"`
}

// unboundedThroughConversion: taint survives int(v).
func unboundedThroughConversion(r *bytes.Reader) ([]int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	count := int(v)
	return make([]int, 0, count), nil // want `allocation sized from varint-decoded "count"`
}

// cappedMake is the sanctioned pattern: the count is checked against a
// named cap before it sizes anything.
func cappedMake(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxEntries {
		return nil, errTooBig
	}
	return make([]byte, n), nil
}

// appendGrown is the other sanctioned pattern: storage grows only as
// bytes are actually read, so a hostile count costs nothing.
func appendGrown(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	var out []byte
	for i := uint64(0); i < n; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// localUvarint mirrors schedio's decoder method: a method named uvarint
// is a taint source by name, matching the repo's canonical decoder.
type dec struct{ r *bytes.Reader }

func (d *dec) uvarint() (uint64, error) { return binary.ReadUvarint(d.r) }

func unboundedFromMethod(d *dec) ([]uint64, error) {
	count, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	return make([]uint64, count), nil // want `allocation sized from varint-decoded "count"`
}

var errTooBig = errors.New("too big")

// bufUvarint mirrors schedio's buffered fast-path decode: it is a taint
// source by name, like uvarint.
func bufUvarint(b []byte, p int) (uint64, int) {
	v, n := binary.Uvarint(b[p:])
	return v, p + n
}

// unboundedFastPath sizes an allocation from the fast decoder with no
// cap comparison.
func unboundedFastPath(b []byte) []uint64 {
	plen, _ := bufUvarint(b, 0)
	return make([]uint64, 0, int(plen)) // want `allocation sized from varint-decoded "plen"`
}

// unboundedGrow: a slices.Grow count is a sink too.
func unboundedGrow(b []byte, arena []uint64) []uint64 {
	plen, _ := bufUvarint(b, 0)
	return slices.Grow(arena, int(plen)) // want `allocation sized from varint-decoded "plen"`
}

// cappedGrow is decodeCalls' shape: the declared length is compared
// against a cap before it sizes the growth.
func cappedGrow(b []byte, arena []uint64) []uint64 {
	plen, p := bufUvarint(b, 0)
	if p < 0 || plen > maxEntries || plen > uint64(len(b)-p) {
		return arena
	}
	return slices.Grow(arena, max(len(arena), 64, int(plen)))
}
