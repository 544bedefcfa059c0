// Package mgardlike implements an MGARD-style multilevel error-bounded
// lossy compressor (Ainsworth et al., SIAM J. Sci. Comput. 2019) in
// pure Go. Like MGARD it decomposes the field into multilevel
// coefficients over recursively nested dyadic lattices — corrections of
// fine nodes against interpolation from the next-coarser lattice — then
// quantizes the corrections with a per-level error budget whose sum
// honors the absolute bound, and entropy codes them (canonical Huffman
// + DEFLATE, standing in for MGARD's Zlib/Zstd stage).
//
// Because coarse lattice nodes influence the entire domain, the
// decomposition captures global, multi-scale correlation structure that
// the block-local SZ-like and ZFP-like compressors cannot — the
// property behind MGARD's flatter CR-versus-variogram-range curves in
// the paper (Figures 3 and 4).
package mgardlike

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/huffman"
	"lossycorr/internal/lossless"
	"lossycorr/internal/quant"
)

// symbolPool recycles the quantized-coefficient stream between
// Compress calls — one field's worth of uint16 per call otherwise.
var symbolPool = sync.Pool{New: func() any { return new([]uint16) }}

var magic = [4]byte{'M', 'G', 'L', '1'}

// Compressor is the MGARD-like codec for rank-2 fields. The zero value
// is ready to use.
type Compressor struct{}

var _ compress.FieldCompressor = Compressor{}

// Name implements compress.FieldCompressor.
func (Compressor) Name() string { return "mgard-like" }

// Ranks implements compress.FieldCompressor.
func (Compressor) Ranks() []int { return []int{2} }

// numLevels picks the number of dyadic refinement levels: the coarsest
// lattice has stride 2^L and still at least two nodes along the longer
// dimension.
func numLevels(rows, cols int) int {
	longer := rows
	if cols > longer {
		longer = cols
	}
	l := 0
	for (1 << uint(l+1)) < longer {
		l++
	}
	return l
}

// onLattice reports whether index i belongs to the stride-s lattice.
func onLattice(i, s int) bool { return i%s == 0 }

// interpolate predicts the value at (r, c) on the stride-s lattice from
// the stride-2s lattice of the rows×cols field data. Nodes fall into three classes: on a
// coarse row (horizontal neighbors), on a coarse column (vertical
// neighbors), or interior (four diagonal neighbors); one-sided copies
// handle clipped boundaries.
func interpolate(data []float64, rows, cols, r, c, s int) float64 {
	// Flat addressing: each neighbor is one add away from a precomputed
	// row offset — this is the innermost read of every level sweep.
	row := r * cols
	s2 := 2 * s
	coarseR := onLattice(r, s2)
	coarseC := onLattice(c, s2)
	switch {
	case coarseR && !coarseC:
		if c+s < cols {
			return 0.5 * (data[row+c-s] + data[row+c+s])
		}
		return data[row+c-s]
	case !coarseR && coarseC:
		if r+s < rows {
			return 0.5 * (data[row-s*cols+c] + data[row+s*cols+c])
		}
		return data[row-s*cols+c]
	default: // interior of a coarse cell: average available diagonals
		upRow, dnRow := row-s*cols, row+s*cols
		l, rgt := c-s, c+s
		sum := data[upRow+l]
		n := 1.0
		if rgt < cols {
			sum += data[upRow+rgt]
			n++
		}
		if r+s < rows {
			sum += data[dnRow+l]
			n++
			if rgt < cols {
				sum += data[dnRow+rgt]
				n++
			}
		}
		return sum / n
	}
}

// forEachLevelNode visits, for the given stride s, every grid node that
// is on the stride-s lattice but not on the stride-2s lattice, in a
// fixed deterministic order shared by compressor and decompressor.
func forEachLevelNode(rows, cols, s int, fn func(r, c int)) {
	s2 := 2 * s
	for r := 0; r < rows; r += s {
		for c := 0; c < cols; c += s {
			if onLattice(r, s2) && onLattice(c, s2) {
				continue
			}
			fn(r, c)
		}
	}
}

// CompressField implements compress.FieldCompressor.
func (Compressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	if absErr <= 0 {
		return nil, fmt.Errorf("mgardlike: non-positive error bound %v", absErr)
	}
	if len(f.Shape) != 2 {
		return nil, fmt.Errorf("mgardlike: rank-2 codec got a rank-%d field", len(f.Shape))
	}
	if f.Len() == 0 {
		return nil, errors.New("mgardlike: empty field")
	}
	rows, cols, data := f.Shape[0], f.Shape[1], f.Data
	L := numLevels(rows, cols)
	// The decomposition is open-loop, like MGARD's: multilevel
	// coefficients are corrections of original values against
	// interpolation of original coarser values. On reconstruction the
	// interpolation instead reads reconstructed coarser values, so
	// per-node error accumulates down the level hierarchy:
	// err(level l) <= q + err(level l+1) <= (L+1-l)·q, which stays
	// within the bound with a uniform per-level budget q = eb/(L+1).
	q := quant.New(absErr / float64(L+1))

	sp := symbolPool.Get().(*[]uint16)
	defer symbolPool.Put(sp)
	symbols := (*sp)[:0]
	var exact []float64

	// coarsest lattice: coefficients are the raw values (zero
	// predictor); large values escape to exact storage, and the coarse
	// lattice is a vanishing fraction of nodes
	sTop := 1 << uint(L)
	for r := 0; r < rows; r += sTop {
		for c := 0; c < cols; c += sTop {
			v := data[r*cols+c]
			sym, _, ok := q.Encode(v)
			if !ok {
				symbols = append(symbols, quant.Escape)
				exact = append(exact, v)
				continue
			}
			symbols = append(symbols, sym)
		}
	}
	// finer levels: corrections against interpolation of the original
	// coarser lattice
	for l := L - 1; l >= 0; l-- {
		s := 1 << uint(l)
		forEachLevelNode(rows, cols, s, func(r, c int) {
			v := data[r*cols+c]
			pred := interpolate(data, rows, cols, r, c, s)
			sym, _, ok := q.Encode(v - pred)
			if !ok {
				symbols = append(symbols, quant.Escape)
				exact = append(exact, v)
				return
			}
			symbols = append(symbols, sym)
		})
	}

	huff := huffman.Encode(symbols)
	*sp = symbols // retain grown capacity for reuse
	buf := compress.AppendHeader(nil, magic, f.Shape, absErr)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(exact)))
	for _, v := range exact {
		buf = compress.AppendElem(buf, v)
	}
	buf = append(buf, huff...)
	return lossless.Compress(buf)
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("mgardlike: corrupt stream")

// DecompressField implements compress.FieldCompressor.
func (Compressor) DecompressField(data []byte) (*field.Field, error) {
	raw, err := lossless.Decompress(data)
	if err != nil {
		return nil, fmt.Errorf("mgardlike: %w", err)
	}
	shape, absErr, raw, ok := compress.ParseHeader(raw, magic, 2)
	if !ok || len(raw) < 4 {
		return nil, ErrCorrupt
	}
	rows, cols := shape[0], shape[1]
	nExact := int(binary.LittleEndian.Uint32(raw))
	raw = raw[4:]
	if len(raw) < 8*nExact {
		return nil, ErrCorrupt
	}
	exact := make([]float64, nExact)
	for i := range exact {
		exact[i] = compress.ReadElem[float64](raw[8*i:])
	}
	symbols, err := huffman.Decode(raw[8*nExact:])
	if err != nil {
		return nil, fmt.Errorf("mgardlike: %w", err)
	}

	L := numLevels(rows, cols)
	q := quant.New(absErr / float64(L+1))
	out := field.New(rows, cols)
	recon := out.Data
	si, ei := 0, 0
	next := func() (uint16, error) {
		if si >= len(symbols) {
			return 0, ErrCorrupt
		}
		s := symbols[si]
		si++
		return s, nil
	}
	var decodeErr error
	takeExact := func() float64 {
		if ei >= len(exact) {
			decodeErr = ErrCorrupt
			return 0
		}
		v := exact[ei]
		ei++
		return v
	}

	sTop := 1 << uint(L)
	for r := 0; r < rows && decodeErr == nil; r += sTop {
		for c := 0; c < cols; c += sTop {
			sym, err := next()
			if err != nil {
				return nil, err
			}
			if sym == quant.Escape {
				recon[r*cols+c] = takeExact()
				continue
			}
			recon[r*cols+c] = q.Decode(sym)
		}
	}
	for l := L - 1; l >= 0 && decodeErr == nil; l-- {
		s := 1 << uint(l)
		var innerErr error
		forEachLevelNode(rows, cols, s, func(r, c int) {
			if innerErr != nil || decodeErr != nil {
				return
			}
			sym, err := next()
			if err != nil {
				innerErr = err
				return
			}
			if sym == quant.Escape {
				recon[r*cols+c] = takeExact()
				return
			}
			recon[r*cols+c] = interpolate(recon, rows, cols, r, c, s) + q.Decode(sym)
		})
		if innerErr != nil {
			return nil, innerErr
		}
	}
	if decodeErr != nil {
		return nil, decodeErr
	}
	if si != len(symbols) || ei != len(exact) {
		return nil, ErrCorrupt
	}
	return out, nil
}
