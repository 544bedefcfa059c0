// Package szlike implements an SZ-style error-bounded lossy compressor
// (Liang et al., IEEE Big Data 2018) in pure Go. Like SZ 2.x it works
// block by block (16×16 in 2D, 8×8×8 in 3D), choosing per block
// between a Lorenzo predictor (inclusion–exclusion extrapolation from
// the 2^d−1 reconstructed neighbours below and behind) and a regression
// predictor (least-squares hyperplane through the block), then linearly
// quantizes prediction residuals into 2·eb bins with an escape path
// that stores unpredictable values exactly. The symbol stream is
// entropy coded with canonical Huffman and the whole payload passes
// through DEFLATE, standing in for SZ's Zstd stage.
//
// One engine serves both ranks and both lanes. The float32 lane
// predicts in float64 (widening a float32 is exact) but keeps the
// reconstruction mirror, the escapes, and the output in float32, and
// re-checks the bound after narrowing each reconstructed sample: the
// rare sample whose narrow rounding lands outside escapes to exact
// storage. Escapes take 8 bytes on the float64 lane and 4 on the
// float32 lane.
//
// Because the predictor only sees local context, the compressor
// exploits local correlation structure — the property the paper links
// to the variogram range.
package szlike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/huffman"
	"lossycorr/internal/lossless"
	"lossycorr/internal/quant"
)

const (
	modeLorenzo byte = iota
	modeRegression
)

// rankSpec is the per-rank table of the engine.
type rankSpec struct {
	name string
	edge int // block edge on every axis
	// magic per lane: float64, float32
	magic [2][4]byte
	// stencil lists the 2^d−1 Lorenzo neighbours in summation order as
	// axis bit masks (bit 0 = last axis, bit 1 = the one before, …): a
	// neighbour one step back along an odd number of axes adds, along
	// an even number subtracts (see lorenzo).
	stencil []int
}

var specs = map[int]*rankSpec{
	2: {"sz-like", 16, [2][4]byte{{'S', 'Z', 'L', '1'}, {'S', 'Z', 'L', 'f'}}, []int{1, 2, 3}},
	3: {"sz-like-3d", 8, [2][4]byte{{'S', 'Z', 'L', '3'}, {'S', 'Z', '3', 'f'}}, []int{1, 2, 4, 3, 5, 6, 7}},
}

// Compressor is the SZ-like codec for fields of one rank (2 or 3). It
// implements compress.Lane32Compressor.
type Compressor struct{ rank int }

var _ compress.Lane32Compressor = Compressor{}

// New returns the codec for rank-2 ("sz-like") or rank-3
// ("sz-like-3d") fields.
func New(rank int) Compressor { return Compressor{rank} }

// Name implements compress.FieldCompressor.
func (c Compressor) Name() string {
	if s := specs[c.rank]; s != nil {
		return s.name
	}
	return fmt.Sprintf("sz-like-%dd", c.rank)
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
var ErrCorrupt = errors.New("szlike: corrupt stream")

// lattice is a field's geometry on a zero-haloed copy: one extra
// leading sample per axis reads as 0, SZ's convention for out-of-field
// neighbours, so no predictor needs a border branch. Three axes are
// always indexed; a rank-2 field is a single plane (n[0] = 1, no halo
// plane, st[0] = 0).
type lattice struct {
	spec *rankSpec
	rank int
	n    [3]int // extents
	bs   [3]int // block edges
	nb   [3]int // blocks per axis
	st   [3]int // haloed strides
	base int    // haloed index of element (0, 0, 0)
	size int    // haloed length
	off  [7]int // Lorenzo neighbour offsets, in stencil order
}

func newLattice(rank int, shape []int) (*lattice, error) {
	spec := specs[rank]
	if spec == nil || len(shape) != rank {
		return nil, fmt.Errorf("szlike: no rank-%d codec for a rank-%d field", rank, len(shape))
	}
	l := &lattice{spec: spec, rank: rank, n: [3]int{1, 1, 1}, bs: [3]int{1, spec.edge, spec.edge}}
	copy(l.n[3-rank:], shape)
	if rank == 3 {
		l.bs[0] = spec.edge
	}
	for k := range l.n {
		l.nb[k] = (l.n[k] + l.bs[k] - 1) / l.bs[k]
	}
	l.st[2] = 1
	l.st[1] = l.n[2] + 1
	l.size = (l.n[1] + 1) * l.st[1]
	if rank == 3 {
		l.st[0] = l.size
		l.size *= l.n[0] + 1
	}
	l.base = l.st[0] + l.st[1] + 1
	for i, m := range spec.stencil {
		for j := 0; j < 3; j++ {
			if m&(1<<j) != 0 {
				l.off[i] += l.st[2-j]
			}
		}
	}
	return l, nil
}

// at is the haloed index of element (z, y, x).
func (l *lattice) at(z, y, x int) int { return l.base + z*l.st[0] + y*l.st[1] + x }

// lorenzo2 and lorenzo3 are the inclusion–exclusion predictions at
// haloed index p of r, summed in stencil order: the single-axis
// neighbours add, the two-axis ones subtract, and (in 3D) the corner
// adds. They are split by rank so each inlines into the kernels, which
// pick one per sample.
func lorenzo2[T field.Elem](r []T, p int, o *[7]int) float64 {
	return float64(r[p-o[0]]) + float64(r[p-o[1]]) - float64(r[p-o[2]])
}

func lorenzo3[T field.Elem](r []T, p int, o *[7]int) float64 {
	return float64(r[p-o[0]]) + float64(r[p-o[1]]) + float64(r[p-o[2]]) -
		float64(r[p-o[3]]) - float64(r[p-o[4]]) - float64(r[p-o[5]]) + float64(r[p-o[6]])
}

// block is one prediction block: its origin and extents.
type block struct{ o, e [3]int }

// blocks lists the blocks in stream order (row-major over block
// indices).
func (l *lattice) blocks(fn func(b *block) error) error {
	var b block
	for bz := 0; bz < l.nb[0]; bz++ {
		for by := 0; by < l.nb[1]; by++ {
			for bx := 0; bx < l.nb[2]; bx++ {
				for k, bi := range [3]int{bz, by, bx} {
					b.o[k] = bi * l.bs[k]
					b.e[k] = min(l.bs[k], l.n[k]-b.o[k])
				}
				if err := fn(&b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// coeffs holds a block's hyperplane: b[0] + Σ b[k+1]·i_k over the
// block-local coordinates, with b[1] unused on a rank-2 field.
type coeffs [4]float64

// rowPred is the plane's value at the start of block row (z, y).
func (l *lattice) rowPred(b *coeffs, z, y int) float64 {
	p := b[0]
	if l.rank == 3 {
		p += b[1] * float64(z)
	}
	return p + b[2]*float64(y)
}

// fit is the least-squares hyperplane through the block's samples
// (closed form: the integer lattice design is orthogonal after
// centering), rounded through float32, the stored representation, so
// compressor and decompressor predict identically.
func fit[T field.Elem](l *lattice, src []T, b *block) coeffs {
	var sv float64
	var skv [3]float64
	for z := 0; z < b.e[0]; z++ {
		fz := float64(z)
		for y := 0; y < b.e[1]; y++ {
			fy := float64(y)
			p := l.at(b.o[0]+z, b.o[1]+y, b.o[2])
			for x, v := range src[p : p+b.e[2]] {
				fv := float64(v)
				sv += fv
				skv[0] += fz * fv
				skv[1] += fy * fv
				skv[2] += float64(x) * fv
			}
		}
	}
	n := b.e[0] * b.e[1] * b.e[2]
	mv := sv / float64(n)
	var c coeffs
	c[0] = mv
	for k := 3 - l.rank; k < 3; k++ {
		m := float64(b.e[k]-1) / 2 // the mean coordinate, exactly
		var skk float64
		for i := 0; i < b.e[k]; i++ {
			d := float64(i) - m
			skk += d * d * float64(n/b.e[k])
		}
		if skk > 0 {
			c[k+1] = (skv[k] - m*sv) / skk
		}
	}
	for k := 3 - l.rank; k < 3; k++ {
		c[0] -= c[k+1] * (float64(b.e[k]-1) / 2)
	}
	for k := range c {
		c[k] = float64(float32(c[k]))
	}
	return c
}

// score sums the squared residuals of both predictors over the block's
// original samples (SZ samples; this evaluates exactly).
func score[T field.Elem](l *lattice, src []T, b *block, c *coeffs) (lor, reg float64) {
	for z := 0; z < b.e[0]; z++ {
		for y := 0; y < b.e[1]; y++ {
			p := l.at(b.o[0]+z, b.o[1]+y, b.o[2])
			rp := l.rowPred(c, z, y)
			for x, v := range src[p : p+b.e[2]] {
				fv := float64(v)
				var pl float64
				if l.rank == 2 {
					pl = lorenzo2(src, p+x, &l.off)
				} else {
					pl = lorenzo3(src, p+x, &l.off)
				}
				le := fv - pl
				lor += le * le
				re := fv - (rp + c[3]*float64(x))
				reg += re * re
			}
		}
	}
	return lor, reg
}

// scratch is the per-call working set of encode — the haloed source
// copy, the reconstruction mirror, the symbol stream and the block
// modes — recycled per lane so batch measurement (every field × error
// bound) stops re-allocating a field's worth of scratch per run;
// decode borrows its reconstruction mirror.
type scratch[T field.Elem] struct {
	src, recon []T
	symbols    []uint16
	modes      []byte
}

var scratchPools = [2]sync.Pool{
	{New: func() any { return new(scratch[float64]) }},
	{New: func() any { return new(scratch[float32]) }},
}

// lane is 0 for float64 and 1 for float32: the index of the lane's
// magic and scratch pool.
func lane[T field.Elem]() int {
	if compress.ElemBytes[T]() == 4 {
		return 1
	}
	return 0
}

// haloed returns s resized to the lattice's haloed length, reusing its
// capacity, with the halo zeroed. The interior is left as it was: the
// source copy overwrites all of it, and the kernels write every
// reconstruction sample before any stencil reads it.
func haloed[T field.Elem](l *lattice, s []T) []T {
	if cap(s) < l.size {
		return make([]T, l.size)
	}
	s = s[:l.size]
	planes := 1
	if l.rank == 3 {
		clear(s[:l.st[0]]) // the z = −1 plane
		planes = l.n[0]
	}
	for z := 0; z < planes; z++ {
		p := l.at(z, -1, -1)
		clear(s[p : p+l.st[1]]) // the y = −1 row
		for y := 0; y < l.n[1]; y++ {
			s[p+(y+1)*l.st[1]] = 0 // the x = −1 sample
		}
	}
	return s
}

// rows calls fn with each field row's offset in the flat field and in
// the haloed lattice.
func (l *lattice) rows(fn func(flat, haloed int)) {
	for z := 0; z < l.n[0]; z++ {
		for y := 0; y < l.n[1]; y++ {
			fn((z*l.n[1]+y)*l.n[2], l.at(z, y, 0))
		}
	}
}

func encode[T field.Elem](rank int, shape []int, data []T, absErr float64) ([]byte, error) {
	if absErr <= 0 {
		return nil, fmt.Errorf("szlike: non-positive error bound %v", absErr)
	}
	if len(data) == 0 {
		return nil, errors.New("szlike: empty field")
	}
	l, err := newLattice(rank, shape)
	if err != nil {
		return nil, err
	}
	narrow := lane[T]() == 1
	q := quant.New(absErr)
	sc := scratchPools[lane[T]()].Get().(*scratch[T])
	defer scratchPools[lane[T]()].Put(sc)
	src, recon := haloed(l, sc.src), haloed(l, sc.recon)
	sc.src, sc.recon = src, recon
	l.rows(func(flat, haloed int) { copy(src[haloed:haloed+l.n[2]], data[flat:flat+l.n[2]]) })

	modes := sc.modes[:0]
	symbols := sc.symbols[:0]
	var cf []float32 // rank+1 per regression block
	var exact []T
	_ = l.blocks(func(b *block) error {
		c := fit(l, src, b)
		mode := modeLorenzo
		if le, re := score(l, src, b, &c); re < le {
			mode = modeRegression
			cf = append(cf, float32(c[0]))
			for k := 3 - rank; k < 3; k++ {
				cf = append(cf, float32(c[k+1]))
			}
		}
		modes = append(modes, mode)
		// Row-sliced quantize kernel: one streaming pass per block row
		// over the source and reconstruction rows.
		for z := 0; z < b.e[0]; z++ {
			for y := 0; y < b.e[1]; y++ {
				p := l.at(b.o[0]+z, b.o[1]+y, b.o[2])
				rec := recon[p : p+b.e[2]]
				rp := l.rowPred(&c, z, y)
				for x, v := range src[p : p+b.e[2]] {
					var pred float64
					switch {
					case mode == modeRegression:
						pred = rp + c[3]*float64(x)
					case l.rank == 2:
						pred = lorenzo2(recon, p+x, &l.off)
					default:
						pred = lorenzo3(recon, p+x, &l.off)
					}
					fv := float64(v)
					if sym, delta, ok := q.Encode(fv - pred); ok {
						// On the float32 lane the bound must hold on the
						// narrowed value the consumer will read.
						rv := T(pred + delta)
						if !narrow || math.Abs(float64(rv)-fv) <= absErr {
							symbols = append(symbols, sym)
							rec[x] = rv
							continue
						}
					}
					symbols = append(symbols, quant.Escape)
					exact = append(exact, v)
					rec[x] = v
				}
			}
		}
		return nil
	})
	huff := huffman.Encode(symbols)
	sc.modes, sc.symbols = modes, symbols // retain grown capacity for reuse

	// payload: header | modes | coeffs | exactCount | exact | huff
	buf := compress.AppendHeader(nil, l.spec.magic[lane[T]()], shape, absErr)
	buf = append(buf, modes...)
	for _, v := range cf {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(exact)))
	for _, v := range exact {
		buf = compress.AppendElem(buf, v)
	}
	buf = append(buf, huff...)
	return lossless.Compress(buf)
}

func decode[T field.Elem](rank int, data []byte) ([]int, []T, error) {
	spec := specs[rank]
	if spec == nil {
		return nil, nil, fmt.Errorf("szlike: no rank-%d codec", rank)
	}
	raw, err := lossless.Decompress(data)
	if err != nil {
		return nil, nil, fmt.Errorf("szlike: %w", err)
	}
	shape, absErr, raw, ok := compress.ParseHeader(raw, spec.magic[lane[T]()], rank)
	if !ok {
		return nil, nil, ErrCorrupt
	}
	l, err := newLattice(rank, shape)
	if err != nil {
		return nil, nil, err
	}
	nBlocks := l.nb[0] * l.nb[1] * l.nb[2]
	if len(raw) < nBlocks {
		return nil, nil, ErrCorrupt
	}
	modes, raw := raw[:nBlocks], raw[nBlocks:]
	nReg := 0
	for _, m := range modes {
		switch m {
		case modeRegression:
			nReg++
		case modeLorenzo:
		default:
			return nil, nil, ErrCorrupt
		}
	}
	nc := rank + 1
	if len(raw) < 4*nc*nReg+4 {
		return nil, nil, ErrCorrupt
	}
	cf := make([]float64, nc*nReg)
	for i := range cf {
		cf[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	raw = raw[4*nc*nReg:]
	nExact := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	w := compress.ElemBytes[T]()
	if nExact < 0 || len(raw) < w*nExact {
		return nil, nil, ErrCorrupt
	}
	exact := make([]T, nExact)
	for i := range exact {
		exact[i] = compress.ReadElem[T](raw[w*i:])
	}
	symbols, err := huffman.Decode(raw[w*nExact:])
	if err != nil {
		return nil, nil, fmt.Errorf("szlike: %w", err)
	}
	if len(symbols) != l.n[0]*l.n[1]*l.n[2] {
		return nil, nil, ErrCorrupt
	}

	q := quant.New(absErr)
	sc := scratchPools[lane[T]()].Get().(*scratch[T])
	defer scratchPools[lane[T]()].Put(sc)
	recon := haloed(l, sc.recon)
	sc.recon = recon
	si, ei, bi := 0, 0, 0
	err = l.blocks(func(b *block) error {
		mode := modes[bi]
		bi++
		var c coeffs
		if mode == modeRegression {
			c[0] = cf[0]
			copy(c[4-rank:], cf[1:nc])
			cf = cf[nc:]
		}
		// Mirror of encode's kernel: same rows, same predictor
		// arithmetic, so the reconstruction tracks the compressor's
		// mirror exactly.
		for z := 0; z < b.e[0]; z++ {
			for y := 0; y < b.e[1]; y++ {
				p := l.at(b.o[0]+z, b.o[1]+y, b.o[2])
				rec := recon[p : p+b.e[2]]
				syms := symbols[si : si+b.e[2]]
				si += b.e[2]
				rp := l.rowPred(&c, z, y)
				for x, sym := range syms {
					if sym == quant.Escape {
						if ei >= len(exact) {
							return ErrCorrupt
						}
						rec[x] = exact[ei]
						ei++
						continue
					}
					var pred float64
					switch {
					case mode == modeRegression:
						pred = rp + c[3]*float64(x)
					case l.rank == 2:
						pred = lorenzo2(recon, p+x, &l.off)
					default:
						pred = lorenzo3(recon, p+x, &l.off)
					}
					rec[x] = T(pred + q.Decode(sym))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if ei != len(exact) {
		return nil, nil, ErrCorrupt
	}
	out := make([]T, len(symbols))
	l.rows(func(flat, haloed int) { copy(out[flat:flat+l.n[2]], recon[haloed:haloed+l.n[2]]) })
	return shape, out, nil
}
