// Package zfplike implements a ZFP-style transform compressor
// (Lindstrom & Isenburg, TVCG 2006 / ZFP 0.5) in pure Go. Like ZFP it
// partitions the field into 4^d blocks (4×4 in 2D, 4×4×4 in 3D),
// aligns each block to a common exponent in integer fixed point,
// applies an invertible integer multiresolution transform along every
// axis, converts coefficients to negabinary (ZFP's truncation-friendly
// sign representation), and encodes coefficient bit planes from most to
// least significant, truncating at a plane derived from the absolute
// tolerance. The transposed bit-plane layout is highly compressible and
// the stream finishes with a DEFLATE pass.
//
// One engine serves both ranks and both lanes. The float32 lane gathers
// blocks straight from float32 samples (widened exactly into the
// unchanged fixed-point transform), stores raw blocks as 4-byte floats,
// and narrows the reconstruction at scatter time. Every original sample
// v is a float32, so rounding the float64 reconstruction x̂ to the
// nearest float32 satisfies |f32(x̂) − v| ≤ 2·|x̂ − v| (v itself is a
// rounding candidate): the float32 lane runs the machinery at half the
// tolerance, which pins max|f32(x̂) − v| ≤ absErr with no per-element
// check.
//
// Deviation from real ZFP (documented in DESIGN.md): the block
// transform is a two-level integer Haar S-transform rather than ZFP's
// proprietary lifting scheme. Both are invertible integer
// decorrelators applied per 4-vector; the compression character
// (block-local decorrelation + embedded bit-plane truncation) is
// preserved, which is what the paper's correlation analysis probes.
package zfplike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"lossycorr/internal/bitstream"
	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/lossless"
)

// BlockSize is the block edge (ZFP uses 4 in each dimension).
const BlockSize = 4

// fixedPointBits positions the fixed-point scaling: values are scaled
// by 2^(fixedPointBits − emax) so |q| < 2^fixedPointBits before the
// transform, whose two levels per axis grow magnitudes by at most 4×
// per axis, keeping everything far inside int64.
const fixedPointBits = 50

const (
	blockZero  byte = iota // all-zero block, no payload
	blockCoded             // bit-plane payload
	blockRaw               // 4^d exact samples (tolerance finer than fixed point)
)

// names and magics per rank; magic per lane: float64, float32.
var (
	names  = map[int]string{2: "zfp-like", 3: "zfp-like-3d"}
	magics = map[int][2][4]byte{
		2: {{'Z', 'F', 'L', '1'}, {'Z', 'F', 'L', 'f'}},
		3: {{'Z', 'F', 'L', '3'}, {'Z', 'F', '3', 'f'}},
	}
)

// Compressor is the ZFP-like codec for fields of one rank (2 or 3). It
// implements compress.Lane32Compressor.
type Compressor struct{ rank int }

var _ compress.Lane32Compressor = Compressor{}

// New returns the codec for rank-2 ("zfp-like") or rank-3
// ("zfp-like-3d") fields.
func New(rank int) Compressor { return Compressor{rank} }

// Name implements compress.FieldCompressor.
func (c Compressor) Name() string {
	if n, ok := names[c.rank]; ok {
		return n
	}
	return fmt.Sprintf("zfp-like-%dd", c.rank)
}

// Ranks implements compress.FieldCompressor.
func (c Compressor) Ranks() []int { return []int{c.rank} }

// CompressField implements compress.FieldCompressor.
func (c Compressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	return encode(c.rank, f.Shape, f.Data, absErr)
}

// DecompressField implements compress.FieldCompressor.
func (c Compressor) DecompressField(data []byte) (*field.Field, error) {
	shape, d, err := decode[float64](c.rank, data)
	if err != nil {
		return nil, err
	}
	return &field.Field{Shape: shape, Data: d}, nil
}

// CompressField32 implements compress.Lane32Compressor.
func (c Compressor) CompressField32(f *field.Field32, absErr float64) ([]byte, error) {
	return encode(c.rank, f.Shape, f.Data, absErr)
}

// DecompressField32 implements compress.Lane32Compressor.
func (c Compressor) DecompressField32(data []byte) (*field.Field32, error) {
	shape, d, err := decode[float32](c.rank, data)
	if err != nil {
		return nil, err
	}
	return &field.Field32{Shape: shape, Data: d}, nil
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("zfplike: corrupt stream")

// fwd4 applies the two-level integer Haar S-transform to a stride-s
// 4-vector in place: output order (coarse mean, coarse detail, fine
// detail 0, fine detail 1).
func fwd4(p []int64, s int) {
	a, b, c, d := p[0], p[s], p[2*s], p[3*s]
	s0, d0 := (a+b)>>1, a-b
	s1, d1 := (c+d)>>1, c-d
	ss, ds := (s0+s1)>>1, s0-s1
	p[0], p[s], p[2*s], p[3*s] = ss, ds, d0, d1
}

// inv4 exactly inverts fwd4.
func inv4(p []int64, s int) {
	ss, ds, d0, d1 := p[0], p[s], p[2*s], p[3*s]
	s0 := ss + ((ds + 1) >> 1)
	s1 := s0 - ds
	a := s0 + ((d0 + 1) >> 1)
	b := a - d0
	c := s1 + ((d1 + 1) >> 1)
	d := c - d1
	p[0], p[s], p[2*s], p[3*s] = a, b, c, d
}

// forwardBlock transforms a 4^d block (row-major, last axis fastest)
// along the last axis first, then each axis before it.
func forwardBlock(q []int64) {
	for s := 1; s < len(q); s *= 4 {
		for i := range q {
			if i&(3*s) == 0 {
				fwd4(q[i:], s)
			}
		}
	}
}

// inverseBlock inverts forwardBlock, axis by axis in reverse.
func inverseBlock(q []int64) {
	for s := len(q) / 4; s >= 1; s /= 4 {
		for i := range q {
			if i&(3*s) == 0 {
				inv4(q[i:], s)
			}
		}
	}
}

// negabinary mask: alternating 1s at the odd bit positions.
const nbMask uint64 = 0xaaaaaaaaaaaaaaaa

// toNegabinary converts two's complement to base −2, ZFP's sign
// representation. Unlike zigzag or sign-magnitude, zeroing the low k
// negabinary digits perturbs the value by less than 2^k, which makes
// MSB-first bit-plane truncation error-bounded.
func toNegabinary(v int64) uint64 { return (uint64(v) + nbMask) ^ nbMask }

// fromNegabinary inverts toNegabinary.
func fromNegabinary(u uint64) int64 { return int64((u ^ nbMask) - nbMask) }

// blockExponent returns e such that every |v| in the block is < 2^e,
// and whether the block is entirely zero.
func blockExponent(vals []float64) (int, bool) {
	maxAbs := 0.0
	for _, v := range vals {
		a := math.Abs(v)
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0, true
	}
	_, e := math.Frexp(maxAbs) // maxAbs = f·2^e with f ∈ [0.5, 1)
	return e, false
}

// blockFinite reports whether every value is finite; non-finite blocks
// must bypass the fixed-point transform (which would smear NaN/Inf
// across every coefficient) and be stored raw.
func blockFinite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// planeCutoff returns the lowest bit-plane index kept so that the
// worst-case reconstruction error of a rank-d block stays within tol.
// Zeroing the low k negabinary digits perturbs a coefficient by at
// most (2/3)·2^k; each inverse S-transform stage maps per-coefficient
// error E to at most 2E+1, so d stages yield ≤ 2^d·E + 2^d − 1 plus
// the 0.5-unit fixed-point rounding. Choosing
// k = floor(log2(tol·scale)) − (d+1) puts the transform term under
// tol·scale/2, and the raw-block floor (fixedPointFloor) keeps the
// rounding terms in the other half.
func planeCutoff(tol float64, emax, rank int) int {
	if tol <= 0 {
		return 0
	}
	k := int(math.Floor(math.Log2(tol))) + fixedPointBits - emax - (rank + 1)
	if k < 0 {
		k = 0
	}
	return k
}

// fixedPointFloor is the finest tolerance bit planes can honor on a
// rank-d block with exponent emax: fixed-point rounding (0.5 ulp of the
// 2^(emax−fixedPointBits) grid) amplified by d inverse stages must fit
// inside half the tolerance. Blocks under a finer tolerance are stored
// raw.
func fixedPointFloor(emax, rank int) float64 {
	return math.Ldexp(1, emax-fixedPointBits+rank+2)
}

// geometry is a field's extents and block counts on three axes; a
// rank-2 field is a single plane (n[0] = 1) with one block along it.
type geometry struct {
	rank int
	n    [3]int
	nb   [3]int
	bs   int // samples per block, 4^rank
}

func newGeometry(rank int, shape []int) (*geometry, error) {
	if _, ok := names[rank]; !ok || len(shape) != rank {
		return nil, fmt.Errorf("zfplike: no rank-%d codec for a rank-%d field", rank, len(shape))
	}
	g := &geometry{rank: rank, n: [3]int{1, 1, 1}, bs: 1 << (2 * rank)}
	copy(g.n[3-rank:], shape)
	for k, n := range g.n {
		g.nb[k] = (n + BlockSize - 1) / BlockSize
	}
	if rank == 2 {
		g.nb[0] = 1
	}
	return g, nil
}

// blocks calls fn with each block's origin in stream order.
func (g *geometry) blocks(fn func(o [3]int) error) error {
	for bz := 0; bz < g.nb[0]; bz++ {
		for by := 0; by < g.nb[1]; by++ {
			for bx := 0; bx < g.nb[2]; bx++ {
				if err := fn([3]int{bz * BlockSize, by * BlockSize, bx * BlockSize}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// span returns the block's sample coordinates on axis k, clipped to
// the field with edge replication, how many the block has on that axis
// (1 on a rank-2 field's leading axis, else BlockSize), and how many
// lie inside the field.
func (g *geometry) span(o [3]int, k int) (c [BlockSize]int, edge, in int) {
	edge = BlockSize
	if k == 0 && g.rank == 2 {
		edge = 1
	}
	for i := 0; i < edge; i++ {
		c[i] = min(o[k]+i, g.n[k]-1)
	}
	return c, edge, min(edge, g.n[k]-o[k])
}

// gather widens a block into vals (row-major, last axis fastest),
// replicating edge samples into clipped blocks; replicated samples are
// real samples, so their reconstruction error is bounded too.
func gather[T field.Elem](g *geometry, data []T, o [3]int, vals []float64) {
	cz, ez, _ := g.span(o, 0)
	cy, _, _ := g.span(o, 1)
	cx, _, _ := g.span(o, 2)
	i := 0
	for _, z := range cz[:ez] {
		for _, y := range cy {
			row := (z*g.n[1] + y) * g.n[2]
			for _, x := range cx {
				vals[i] = float64(data[row+x])
				i++
			}
		}
	}
}

// scatter narrows the in-field part of a block into data.
func scatter[T field.Elem](g *geometry, data []T, o [3]int, vals []float64) {
	_, _, nz := g.span(o, 0)
	_, _, ny := g.span(o, 1)
	_, _, nx := g.span(o, 2)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			row := ((o[0]+z)*g.n[1]+o[1]+y)*g.n[2] + o[2]
			src := vals[(z*BlockSize+y)*BlockSize:]
			for x := 0; x < nx; x++ {
				data[row+x] = T(src[x])
			}
		}
	}
}

// scratch recycles the per-call stream builders of encode — block
// modes, coded-block metadata, raw escapes, and the bit-plane writer —
// across batch measurement runs.
type scratch struct {
	modes, meta, rawVals []byte
	w                    *bitstream.Writer
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{w: bitstream.NewWriter()}
}}

func encode[T field.Elem](rank int, shape []int, data []T, absErr float64) ([]byte, error) {
	if absErr <= 0 {
		return nil, fmt.Errorf("zfplike: non-positive error bound %v", absErr)
	}
	if len(data) == 0 {
		return nil, errors.New("zfplike: empty field")
	}
	g, err := newGeometry(rank, shape)
	if err != nil {
		return nil, err
	}
	lane := 0
	tol := absErr
	if compress.ElemBytes[T]() == 4 {
		lane, tol = 1, 0.5*absErr
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	modes := sc.modes[:0]
	meta := sc.meta[:0] // per coded block: emax int16, top byte, cutoff byte
	rawVals := sc.rawVals[:0]
	w := sc.w
	w.Reset()

	var valsBuf [64]float64
	var qBuf [64]int64
	var zzBuf [64]uint64
	vals, q, zz := valsBuf[:g.bs], qBuf[:g.bs], zzBuf[:g.bs]
	_ = g.blocks(func(o [3]int) error {
		gather(g, data, o, vals)
		emax, zero := blockExponent(vals)
		if zero {
			modes = append(modes, blockZero)
			return nil
		}
		if tol < fixedPointFloor(emax, rank) || !blockFinite(vals) {
			modes = append(modes, blockRaw)
			for _, v := range vals {
				rawVals = compress.AppendElem(rawVals, T(v))
			}
			return nil
		}
		scale := math.Ldexp(1, fixedPointBits-emax)
		for i, v := range vals {
			q[i] = int64(math.Round(v * scale))
		}
		forwardBlock(q)
		top := 0 // number of planes needed: position of highest set bit
		for i, v := range q {
			zz[i] = toNegabinary(v)
			top = max(top, bits.Len64(zz[i]))
		}
		cutoff := min(planeCutoff(tol, emax, rank), top)
		modes = append(modes, blockCoded)
		meta = binary.LittleEndian.AppendUint16(meta, uint16(int16(emax)))
		meta = append(meta, byte(top), byte(cutoff))
		// Transposed bit planes, MSB first: each 4^d-coefficient plane
		// is gathered into one word (coefficient 0 at the high bit,
		// preserving the bit order of per-bit writes) and emitted with
		// a single batched write.
		for plane := top - 1; plane >= cutoff; plane-- {
			var pb uint64
			for _, z := range zz {
				pb = pb<<1 | (z>>uint(plane))&1
			}
			w.WriteBits(pb, uint(g.bs))
		}
		return nil
	})

	sc.modes, sc.meta, sc.rawVals = modes, meta, rawVals // retain capacity
	payload := compress.AppendHeader(nil, magics[rank][lane], shape, absErr)
	payload = append(payload, modes...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(meta)))
	payload = append(payload, meta...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rawVals)))
	payload = append(payload, rawVals...)
	payload = append(payload, w.Bytes()...)
	return lossless.Compress(payload)
}

func decode[T field.Elem](rank int, data []byte) ([]int, []T, error) {
	m, ok := magics[rank]
	if !ok {
		return nil, nil, fmt.Errorf("zfplike: no rank-%d codec", rank)
	}
	raw, err := lossless.Decompress(data)
	if err != nil {
		return nil, nil, fmt.Errorf("zfplike: %w", err)
	}
	lane := 0
	if compress.ElemBytes[T]() == 4 {
		lane = 1
	}
	shape, _, raw, ok := compress.ParseHeader(raw, m[lane], rank)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	g, err := newGeometry(rank, shape)
	if err != nil {
		return nil, nil, err
	}
	nBlocks := g.nb[0] * g.nb[1] * g.nb[2]
	if len(raw) < nBlocks+4 {
		return nil, nil, ErrCorrupt
	}
	modes, raw := raw[:nBlocks], raw[nBlocks:]
	metaLen := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	if len(raw) < metaLen+4 {
		return nil, nil, ErrCorrupt
	}
	meta, raw := raw[:metaLen], raw[metaLen:]
	rawLen := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	if len(raw) < rawLen {
		return nil, nil, ErrCorrupt
	}
	rawVals := raw[:rawLen]
	r := bitstream.NewReader(raw[rawLen:])

	out := make([]T, g.n[0]*g.n[1]*g.n[2])
	wb := compress.ElemBytes[T]()
	var valsBuf [64]float64
	var qBuf [64]int64
	var zzBuf [64]uint64
	vals, q, zz := valsBuf[:g.bs], qBuf[:g.bs], zzBuf[:g.bs]
	bi := 0
	err = g.blocks(func(o [3]int) error {
		mode := modes[bi]
		bi++
		switch mode {
		case blockZero:
			clear(vals)
		case blockRaw:
			if len(rawVals) < g.bs*wb {
				return ErrCorrupt
			}
			for i := range vals {
				vals[i] = float64(compress.ReadElem[T](rawVals[i*wb:]))
			}
			rawVals = rawVals[g.bs*wb:]
		case blockCoded:
			if len(meta) < 4 {
				return ErrCorrupt
			}
			emax := int(int16(binary.LittleEndian.Uint16(meta)))
			top, cutoff := int(meta[2]), int(meta[3])
			meta = meta[4:]
			if top > 64 || cutoff > top {
				return ErrCorrupt
			}
			clear(zz)
			for plane := top - 1; plane >= cutoff; plane-- {
				pb, err := r.ReadBits(uint(g.bs))
				if err != nil {
					return fmt.Errorf("zfplike: truncated planes: %w", err)
				}
				for i := len(zz) - 1; i >= 0; i-- { // coefficient 0 is the high bit
					zz[i] |= (pb & 1) << uint(plane)
					pb >>= 1
				}
			}
			for i := range q {
				q[i] = fromNegabinary(zz[i])
			}
			inverseBlock(q)
			scale := math.Ldexp(1, emax-fixedPointBits)
			for i := range vals {
				vals[i] = float64(q[i]) * scale
			}
		default:
			return ErrCorrupt
		}
		scatter(g, out, o, vals)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return shape, out, nil
}
