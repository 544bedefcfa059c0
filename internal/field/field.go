// Package field provides the dimension-generic dense scalar field the
// analysis pipeline is built on: one contiguous row-major array plus a
// shape, viewable as a 2D grid or a 3D volume without copying. The
// statistics, codec, and orchestration layers operate on *Field, so a
// windowed statistic or a registry lookup is written once and works for
// any rank.
//
// Layout matches the existing containers exactly: the last dimension
// varies fastest, so a rank-2 field shares its Data slice with a
// grid.Grid (row-major) and a rank-3 field with a grid.Volume (x
// fastest, Miranda's (nz, ny, nx) slab order). Conversions are O(1)
// views, not copies, which is what keeps the generic pipeline
// bit-identical to the historical 2D one.
package field

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"lossycorr/internal/grid"
)

// stagingPool recycles the fixed 32 KiB byte buffers every payload
// reader and the tile reader stage their I/O through, so concurrent
// parses (the service upload path, parallel tile streams) stop
// allocating a staging slice per call.
var stagingPool = sync.Pool{New: func() any {
	b := make([]byte, 8*4096)
	return &b
}}

func acquireStaging() *[]byte  { return stagingPool.Get().(*[]byte) }
func releaseStaging(b *[]byte) { stagingPool.Put(b) }

// Field is a dense scalar field of arbitrary rank. Shape lists the
// extents slowest-varying first; element (i_0, …, i_{d-1}) lives at
// Data[((i_0·Shape[1]+i_1)·Shape[2]+i_2)·…]. The zero value is an
// empty rank-0 field.
type Field struct {
	Shape []int
	Data  []float64
}

// New returns a zero-filled field with the given shape.
func New(shape ...int) *Field {
	n, err := shapeProduct(shape)
	if err != nil {
		panic(err.Error())
	}
	return &Field{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromData wraps an existing flat slice; it does not copy. The slice
// length must equal the product of the shape.
func FromData(shape []int, data []float64) (*Field, error) {
	n, err := shapeProduct(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("field: data length %d != product of shape %v", len(data), shape)
	}
	return &Field{Shape: append([]int(nil), shape...), Data: data}, nil
}

// FromGrid views a 2D grid as a rank-2 field, sharing its data.
func FromGrid(g *grid.Grid) *Field {
	return &Field{Shape: []int{g.Rows, g.Cols}, Data: g.Data}
}

// FromVolume views a 3D volume as a rank-3 field, sharing its data.
func FromVolume(v *grid.Volume) *Field {
	return &Field{Shape: []int{v.Nz, v.Ny, v.Nx}, Data: v.Data}
}

// AsGrid views a rank-2 field as a grid, sharing its data.
func (f *Field) AsGrid() (*grid.Grid, error) {
	if len(f.Shape) != 2 {
		return nil, fmt.Errorf("field: rank-%d field is not a 2D grid", len(f.Shape))
	}
	return &grid.Grid{Rows: f.Shape[0], Cols: f.Shape[1], Data: f.Data}, nil
}

// AsVolume views a rank-3 field as a volume, sharing its data.
func (f *Field) AsVolume() (*grid.Volume, error) {
	if len(f.Shape) != 3 {
		return nil, fmt.Errorf("field: rank-%d field is not a 3D volume", len(f.Shape))
	}
	return &grid.Volume{Nz: f.Shape[0], Ny: f.Shape[1], Nx: f.Shape[2], Data: f.Data}, nil
}

// NDim returns the rank.
func (f *Field) NDim() int { return len(f.Shape) }

// Len returns the number of elements.
func (f *Field) Len() int {
	n := 1
	for _, s := range f.Shape {
		n *= s
	}
	return n
}

// SizeBytes returns the uncompressed size in bytes (8 per element).
func (f *Field) SizeBytes() int { return f.Len() * 8 }

// MinDim returns the smallest extent (0 for a rank-0 field).
func (f *Field) MinDim() int {
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
func (f *Field) Strides() []int {
	return stridesOf(f.Shape, make([]int, len(f.Shape)))
}

// At returns the element at the given index tuple.
func (f *Field) At(idx ...int) float64 {
	return f.Data[f.flatIndex(idx)]
}

// Set assigns the element at the given index tuple.
func (f *Field) Set(v float64, idx ...int) {
	f.Data[f.flatIndex(idx)] = v
}

func (f *Field) flatIndex(idx []int) int {
	return flatOffset(f.Shape, idx)
}

// Clone returns a deep copy.
func (f *Field) Clone() *Field {
	out := &Field{Shape: append([]int(nil), f.Shape...), Data: make([]float64, len(f.Data))}
	copy(out.Data, f.Data)
	return out
}

// Summary computes min/max/mean/variance in one pass (Welford), with
// arithmetic identical to (*grid.Grid).Summary so statistics computed
// through the field layer reproduce the historical 2D values bitwise.
func (f *Field) Summary() grid.Stats {
	return Summarize(f.Data)
}

// SameShape reports whether two fields agree in rank and extents.
func (f *Field) SameShape(o *Field) bool {
	return sameExtents(f.Shape, o.Shape)
}

// MaxAbsDiff returns max|f-o| over all elements; shapes must agree.
func (f *Field) MaxAbsDiff(o *Field) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	return maxAbsDiffData(f.Data, o.Data), nil
}

// MSE returns the mean squared error between two equally shaped fields.
func (f *Field) MSE(o *Field) (float64, error) {
	if !f.SameShape(o) {
		return 0, fmt.Errorf("field: shape mismatch %v vs %v", f.Shape, o.Shape)
	}
	return mseData(f.Data, o.Data), nil
}

// Window copies the hypercube with the given origin corner and edge h,
// clipped to the field, so callers tiling a non-multiple field receive
// ragged edge windows — the rank-generic form of (*grid.Grid).Window.
func (f *Field) Window(origin []int, h int) *Field {
	return f.WindowInto(new(Field), origin, h)
}

// WindowInto is Window extracting into dst, reusing dst's shape and
// data storage when their capacities allow — the zero-allocation form
// the windowed statistics feed from a per-worker pool. It returns dst.
func (f *Field) WindowInto(dst *Field, origin []int, h int) *Field {
	dst.Shape, dst.Data = windowIntoData(f.Shape, f.Data, dst.Shape, dst.Data, origin, h)
	return dst
}

// TileOrigins returns the origin corner of every h-edged tile covering
// the field in lexicographic (slowest-dimension-first) order — for a
// rank-2 field, exactly the order (*grid.Grid).TileOrigins visits.
func (f *Field) TileOrigins(h int) [][]int {
	return tileOriginsOf(f.Shape, h)
}

// NumTiles returns how many h-edged tiles (including clipped edge
// tiles) cover the field.
func (f *Field) NumTiles(h int) int {
	return numTilesOf(f.Shape, h)
}

// Binary format. Rank-2 float64 fields use the legacy grid layout (two
// uint32 dimensions + float64 payload, little endian) so files written
// by either layer stay interchangeable. Other ranks use a tagged
// layout: the magic "LCF1", a uint32 rank word, the uint32 extents,
// then the payload. ReadBinary sniffs the magic and accepts both.
//
// The float32 lane sets f32LaneFlag in the rank word (rank stays in
// the low bits) and stores a float32 payload; Field32.WriteBinary
// emits it for every rank, including 2. Readers predating the flag
// reject such files with "unreasonable rank" rather than misreading
// them, and legacy-2D/float64 detection is unchanged.

var magic = [4]byte{'L', 'C', 'F', '1'}

// f32LaneFlag marks a float32 payload in the LCF1 rank word. The flag
// sits far above the 1..8 rank range, so any flagged word read by an
// older binary fails rank validation instead of decoding garbage.
const f32LaneFlag = 0x00010000

// maxElems is the absolute element-count ceiling of ReadBinary: even a
// well-formed header may not ask for more than 2^30 elements (8 GiB of
// float64), so a crafted 8-byte header can never drive a larger
// allocation. Callers serving untrusted uploads pass a much smaller
// cap through ReadBinaryLimit.
const maxElems = 1 << 30

// validateShape checks a decoded header shape before anything is
// allocated: every extent must be strictly positive (a zero extent is
// a malformed header, not an empty field — no writer produces one) and
// bounded by limit elements, and the running element product must stay
// under limit too, which also keeps it far from int64 overflow (each
// factor and every prefix product is <= 2^30). Returns the element
// count.
func validateShape(shape []int, limit int) (int, error) {
	if limit <= 0 || limit > maxElems {
		limit = maxElems
	}
	n := 1
	for k, s := range shape {
		if s <= 0 || s > limit {
			return 0, fmt.Errorf("field: unreasonable extent in %v", shape[:k+1])
		}
		n *= s
		if n > limit {
			return 0, fmt.Errorf("field: shape %v exceeds %d-element cap", shape[:k+1], limit)
		}
	}
	return n, nil
}

// WriteBinary writes the field in the format described above.
func (f *Field) WriteBinary(w io.Writer) error {
	if len(f.Shape) == 2 {
		g, err := f.AsGrid()
		if err != nil {
			return err
		}
		return g.WriteBinary(w)
	}
	hdr := make([]byte, 8+4*len(f.Shape))
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(f.Shape)))
	for k, s := range f.Shape {
		binary.LittleEndian.PutUint32(hdr[8+4*k:], uint32(s))
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8*4096)
	for off := 0; off < len(f.Data); off += 4096 {
		end := off + 4096
		if end > len(f.Data) {
			end = len(f.Data)
		}
		chunk := f.Data[off:end]
		for i, v := range chunk {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		if _, err := w.Write(buf[:8*len(chunk)]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBinary reads a field written by WriteBinary or by
// (*grid.Grid).WriteBinary, detecting the layout from the header, with
// the default 2^30-element allocation cap.
func ReadBinary(r io.Reader) (*Field, error) {
	return ReadBinaryLimit(r, 0)
}

// ReadBinaryLimit is ReadBinary with an explicit allocation budget:
// the header's claimed element count must not exceed maxElements
// (values <= 0 or above the 2^30 absolute ceiling fall back to that
// ceiling). The shape is fully validated — positive extents, per-extent
// and running-product caps, no int overflow — before a single payload
// byte is allocated, so an untrusted upload whose 8-byte header claims
// a multi-GB field costs nothing but the header read. This is the
// entry point the corrcompd upload path uses, with its budget derived
// from the configured request-body limit.
func ReadBinaryLimit(r io.Reader, maxElements int) (*Field, error) {
	shape, f32, _, err := readHeaderFrom(r, maxElements)
	if err != nil {
		return nil, err
	}
	f := New(shape...)
	if f32 {
		// Widen during the chunked payload read: only the float64
		// destination is ever materialized, not a full float32 copy
		// first — the staging slice is the transient.
		if err := readPayloadWide(r, f.Data); err != nil {
			return nil, err
		}
		return f, nil
	}
	if err := readPayload(r, f.Data); err != nil {
		return nil, err
	}
	return f, nil
}

// ReadAnyLimit reads either compute lane under the same allocation
// budget, preserving the lane the file was written in: exactly one of
// the returned fields is non-nil — *Field for legacy-2D and untagged
// LCF1 (float64) layouts, *Field32 when the rank word carries
// f32LaneFlag. Callers that only speak float64 use ReadBinaryLimit,
// which widens transparently; lane-aware callers (the service upload
// path, corrcomp -f32) dispatch on which pointer is set.
func ReadAnyLimit(r io.Reader, maxElements int) (*Field, *Field32, error) {
	shape, f32, _, err := readHeaderFrom(r, maxElements)
	if err != nil {
		return nil, nil, err
	}
	if f32 {
		f := New32(shape...)
		if err := readPayload32(r, f.Data); err != nil {
			return nil, nil, err
		}
		return nil, f, nil
	}
	f := New(shape...)
	if err := readPayload(r, f.Data); err != nil {
		return nil, nil, err
	}
	return f, nil, nil
}

// readHeaderFrom consumes and validates one field header from r,
// returning the decoded shape, whether the payload is the float32 lane,
// and how many header bytes were consumed (the payload's byte offset
// for random-access readers). Shapes are fully validated against
// maxElements before the caller allocates anything.
func readHeaderFrom(r io.Reader, maxElements int) (shape []int, f32 bool, hdrLen int, err error) {
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, false, 0, fmt.Errorf("field: short header: %w", err)
	}
	if hdr[0] == magic[0] && hdr[1] == magic[1] && hdr[2] == magic[2] && hdr[3] == magic[3] {
		word := binary.LittleEndian.Uint32(hdr[4:])
		f32 = word&f32LaneFlag != 0
		d := int(word &^ uint32(f32LaneFlag))
		if d < 1 || d > 8 {
			return nil, false, 0, fmt.Errorf("field: unreasonable rank %d", d)
		}
		dims := make([]byte, 4*d)
		if _, err := io.ReadFull(r, dims); err != nil {
			return nil, false, 0, fmt.Errorf("field: short shape: %w", err)
		}
		shape = make([]int, d)
		for k := range shape {
			shape[k] = int(binary.LittleEndian.Uint32(dims[4*k:]))
		}
		if _, err := validateShape(shape, maxElements); err != nil {
			return nil, false, 0, err
		}
		return shape, f32, 8 + 4*d, nil
	}
	// Legacy 2D layout: the 8 bytes already read are the dimensions.
	rows := int(binary.LittleEndian.Uint32(hdr[0:]))
	cols := int(binary.LittleEndian.Uint32(hdr[4:]))
	if _, err := validateShape([]int{rows, cols}, maxElements); err != nil {
		return nil, false, 0, err
	}
	return []int{rows, cols}, false, 8, nil
}

func readPayload(r io.Reader, data []float64) error {
	bp := acquireStaging()
	defer releaseStaging(bp)
	buf := *bp
	for off := 0; off < len(data); off += 4096 {
		end := off + 4096
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		if _, err := io.ReadFull(r, buf[:8*len(chunk)]); err != nil {
			return fmt.Errorf("field: short body: %w", err)
		}
		for i := range chunk {
			chunk[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return nil
}

// readPayloadWide reads a float32 payload directly into a float64
// destination, widening chunk by chunk through the pooled staging
// slice, so reading an f32 file into the oracle lane never holds both
// full-size lanes at once.
func readPayloadWide(r io.Reader, data []float64) error {
	bp := acquireStaging()
	defer releaseStaging(bp)
	buf := *bp
	for off := 0; off < len(data); off += 8192 {
		end := off + 8192
		if end > len(data) {
			end = len(data)
		}
		chunk := data[off:end]
		if _, err := io.ReadFull(r, buf[:4*len(chunk)]); err != nil {
			return fmt.Errorf("field: short body: %w", err)
		}
		for i := range chunk {
			chunk[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return nil
}
