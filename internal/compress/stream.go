package compress

// Stream pieces the built-in codecs share: the header every stream
// opens with, and the lane-width encoding of raw samples.

import (
	"encoding/binary"
	"math"

	"lossycorr/internal/field"
)

// maxElements caps the element count a stream header may declare.
const maxElements = 1 << 30

// AppendHeader appends the stream header: the 4-byte magic, one
// little-endian uint32 per extent, and the float64 absolute bound.
func AppendHeader(buf []byte, magic [4]byte, shape []int, absErr float64) []byte {
	buf = append(buf, magic[:]...)
	for _, n := range shape {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(absErr))
}

// ParseHeader reads a rank-extent header written by AppendHeader and
// returns the shape, the bound, and the bytes after the header. ok is
// false when the magic differs, the stream is short, an extent is not
// positive, the element count is implausible, or the bound is not
// positive.
func ParseHeader(raw []byte, magic [4]byte, rank int) (shape []int, absErr float64, rest []byte, ok bool) {
	n := 4 + 4*rank + 8
	if len(raw) < n || [4]byte(raw[:4]) != magic {
		return nil, 0, nil, false
	}
	shape = make([]int, rank)
	total := 1
	for k := range shape {
		shape[k] = int(binary.LittleEndian.Uint32(raw[4+4*k:]))
		if shape[k] <= 0 || shape[k] > maxElements {
			return nil, 0, nil, false
		}
		if total *= shape[k]; total > maxElements {
			return nil, 0, nil, false
		}
	}
	absErr = math.Float64frombits(binary.LittleEndian.Uint64(raw[4+4*rank:]))
	if !(absErr > 0) {
		return nil, 0, nil, false
	}
	return shape, absErr, raw[n:], true
}

// ElemBytes is the stream width of one T sample: 8 for float64, 4 for
// float32.
func ElemBytes[T field.Elem]() int {
	var z T
	if _, ok := any(z).(float32); ok {
		return 4
	}
	return 8
}

// AppendElem appends v's IEEE bits, little-endian, at the lane width.
func AppendElem[T field.Elem](buf []byte, v T) []byte {
	if ElemBytes[T]() == 4 {
		return binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(v)))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(v)))
}

// ReadElem decodes one sample written by AppendElem from the front of
// b, which must hold ElemBytes[T]() bytes.
func ReadElem[T field.Elem](b []byte) T {
	if ElemBytes[T]() == 4 {
		return T(math.Float32frombits(binary.LittleEndian.Uint32(b)))
	}
	return T(math.Float64frombits(binary.LittleEndian.Uint64(b)))
}
