package field

// Field32 is the float32 compute lane: the same dense row-major
// storage contract as Field at half the bytes per element, matching
// what the paper's datasets (Miranda, Hurricane, NYX) actually store
// on disk and what SZ/ZFP-style compressors actually consume. All
// shape, window, odometer, and summary machinery is shared with the
// float64 lane through the Elem-generic helpers in elem.go; statistics
// and error metrics accumulate in float64 either way. Field stays the
// oracle lane — every float32 analysis path is pinned
// tolerance-equivalent against it.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lossycorr/internal/grid"
)

// Field32 is a dense float32 scalar field of arbitrary rank, with the
// same layout contract as Field.
type Field32 struct {
	Shape []int
	Data  []float32
}

// New32 returns a zero-filled float32 field with the given shape.
func New32(shape ...int) *Field32 {
	n, err := shapeProduct(shape)
	if err != nil {
		panic(err.Error())
	}
	return &Field32{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromData32 wraps an existing flat slice; it does not copy.
func FromData32(shape []int, data []float32) (*Field32, error) {
	n, err := shapeProduct(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("field: data length %d != product of shape %v", len(data), shape)
	}
	return &Field32{Shape: append([]int(nil), shape...), Data: data}, nil
}

// NDim returns the rank.
func (f *Field32) NDim() int { return len(f.Shape) }

// Len returns the number of elements.
func (f *Field32) Len() int {
	n := 1
	for _, s := range f.Shape {
		n *= s
	}
	return n
}

// SizeBytes returns the uncompressed size in bytes (4 per element).
func (f *Field32) SizeBytes() int { return f.Len() * 4 }

// MinDim returns the smallest extent (0 for a rank-0 field).
func (f *Field32) MinDim() int {
	if len(f.Shape) == 0 {
		return 0
	}
	m := f.Shape[0]
	for _, s := range f.Shape[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// Strides returns the element stride of each dimension (last is 1).
func (f *Field32) Strides() []int {
	return stridesOf(f.Shape, make([]int, len(f.Shape)))
}

// At returns the element at the given index tuple.
func (f *Field32) At(idx ...int) float32 {
	return f.Data[flatOffset(f.Shape, idx)]
}

// Set assigns the element at the given index tuple.
func (f *Field32) Set(v float32, idx ...int) {
	f.Data[flatOffset(f.Shape, idx)] = v
}

// Clone returns a deep copy.
func (f *Field32) Clone() *Field32 {
	out := &Field32{Shape: append([]int(nil), f.Shape...), Data: make([]float32, len(f.Data))}
	copy(out.Data, f.Data)
	return out
}

// Summary computes min/max/mean/variance in one float64-accumulated
// Welford pass over the narrow samples.
func (f *Field32) Summary() grid.Stats {
	return Summarize(f.Data)
}

// SameShape reports whether two fields agree in rank and extents.
func (f *Field32) SameShape(o *Field32) bool {
	return sameExtents(f.Shape, o.Shape)
}

// MaxAbsDiff returns max|f-o| over all elements; shapes must agree.
func (f *Field32) MaxAbsDiff(o *Field32) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	return maxAbsDiffData(f.Data, o.Data), nil
}

// MSE returns the mean squared error between two equally shaped fields.
func (f *Field32) MSE(o *Field32) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	return mseData(f.Data, o.Data), nil
}

// Window copies the clipped hypercube with the given origin and edge h.
func (f *Field32) Window(origin []int, h int) *Field32 {
	return f.WindowInto(new(Field32), origin, h)
}

// WindowInto is Window extracting into dst, reusing dst's storage when
// capacities allow; it returns dst.
func (f *Field32) WindowInto(dst *Field32, origin []int, h int) *Field32 {
	dst.Shape, dst.Data = windowIntoData(f.Shape, f.Data, dst.Shape, dst.Data, origin, h)
	return dst
}

// WindowIntoWide extracts the clipped window directly into a float64
// Field, widening each element during the copy. The windowed
// statistics (local variogram range, local SVD level) use it to run
// their small per-window solves in oracle precision without ever
// materializing a full-size float64 copy of the field.
func (f *Field32) WindowIntoWide(dst *Field, origin []int, h int) *Field {
	dst.Shape, dst.Data = windowIntoData(f.Shape, f.Data, dst.Shape, dst.Data, origin, h)
	return dst
}

// TileOrigins returns the origin corner of every h-edged tile covering
// the field in lexicographic order.
func (f *Field32) TileOrigins(h int) [][]int {
	return tileOriginsOf(f.Shape, h)
}

// NumTiles returns how many h-edged tiles cover the field.
func (f *Field32) NumTiles(h int) int {
	return numTilesOf(f.Shape, h)
}

// Widen returns a float64 Field with the same shape and the exactly
// represented values of f (float32→float64 is lossless).
func (f *Field32) Widen() *Field {
	out := &Field{Shape: append([]int(nil), f.Shape...), Data: make([]float64, len(f.Data))}
	for i, v := range f.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// Narrow returns the float32 lane of a float64 field, rounding each
// element to nearest. The inverse of Widen up to that rounding.
func (f *Field) Narrow() *Field32 {
	out := &Field32{Shape: append([]int(nil), f.Shape...), Data: make([]float32, len(f.Data))}
	for i, v := range f.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// WriteBinary writes the field in the tagged LCF1 layout with
// f32LaneFlag set in the rank word and a float32 payload — for every
// rank, including 2 (the legacy untyped 2D layout stays float64-only).
func (f *Field32) WriteBinary(w io.Writer) error {
	if len(f.Shape) < 1 || len(f.Shape) > 8 {
		return fmt.Errorf("field: rank %d not writable", len(f.Shape))
	}
	hdr := make([]byte, 8+4*len(f.Shape))
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(f.Shape))|f32LaneFlag)
	for k, s := range f.Shape {
		binary.LittleEndian.PutUint32(hdr[8+4*k:], uint32(s))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4*4096)
	for off := 0; off < len(f.Data); off += 4096 {
		end := off + 4096
		if end > len(f.Data) {
			end = len(f.Data)
		}
		chunk := f.Data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf[:4*len(chunk)]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary32 reads a float32-lane field written by
// (*Field32).WriteBinary, with the default allocation cap. Files in
// either float64 layout are rejected — use ReadAnyLimit to accept any
// lane.
func ReadBinary32(r io.Reader) (*Field32, error) {
	return ReadBinary32Limit(r, 0)
}

// ReadBinary32Limit is ReadBinary32 with an explicit element budget
// (same semantics as ReadBinaryLimit).
func ReadBinary32Limit(r io.Reader, maxElements int) (*Field32, error) {
	f, f32, err := ReadAnyLimit(r, maxElements)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return nil, fmt.Errorf("field: float64-lane file where float32 expected")
	}
	return f32, nil
}

func readPayload32(r io.Reader, data []float32) error {
	bp := acquireStaging()
	defer releaseStaging(bp)
	buf := (*bp)[:4*4096]
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		if _, err := io.ReadFull(r, buf[:4*len(chunk)]); err != nil {
			return fmt.Errorf("field: short body: %w", err)
		}
		for i := range chunk {
			chunk[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	return nil
}
