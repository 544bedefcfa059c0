package variogram

// FFT exact engine, one for both lanes. The exhaustive scan costs
// O(N·L^d): every lag offset re-sweeps the whole array. But each of
// its per-offset quantities is a correlation or has a closed form on a
// dense rectangular domain B:
//
//	S(h) = Σ_{x∈B∩(B−h)} (z(x) − z(x+h))²
//	     = W(B∩(B−h)) + W(B∩(B+h)) − 2·c_zz(h)
//	N(h) = Π_k (dim_k − |h_k|)
//
// where c_zz(h) = Σ_x z(x)·z(x+h) is the linear autocorrelation and
// W(R) the sum of z² over the box R. Three choices make that cheap and
// robust on either lane:
//
//  1. The field mean (computed in float64) is subtracted at embed
//     time. S(h) is exactly shift-invariant, and centring keeps the
//     |Z|² plane at the scale of the fluctuations rather than of the
//     squared mean — without it a field offset by 1e8σ loses its
//     variogram to cancellation on either lane.
//  2. Pair counts come from the closed form, which is what the direct
//     scan counts — exactly, with no rounded mask correlation.
//  3. The z² box sums come from a float64 summed-area table (SAT) of
//     centred z², 2^d corner reads per lag at prefix-sum accuracy.
//
// What remains on the FFT side is one autocorrelation: the centred
// field zero-padded to FastLen(dim+L) per axis (so circular wrap never
// aliases a lag |h_k| <= L), one real forward transform, |Z|², one real
// inverse, over one real plane of the field's lane (reused as the c_zz
// output) and one half-spectrum. Peak transform bytes are those two
// plus the unpadded float64 SAT. Arbitrary exact extents remain
// available through the fft package's Bluestein plan; padLenFn is
// swappable in tests to push the whole pipeline through that path.
//
// The per-offset results are folded into the same rounded-distance
// bins, in the same canonical enumeration order, as the direct scan,
// accumulating in float64; pair counts agree exactly and Gamma to
// roundoff (the equivalence tests pin 1e-9 relative on the float64
// lane), and results are bit-identical at any worker count.

import (
	"context"
	"fmt"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

// padLenFn chooses the padded extent for a required minimum length.
// FastLen keeps every axis on the mixed-radix fast path at a few
// percent of slack; tests swap in an identity to drive the exact
// (Bluestein) lengths through the full engine.
var padLenFn = fft.FastLen

// fftScanData computes the exact binned variogram of a field of either
// lane through the identities above. Cancellation is observed at stage
// boundaries (SAT build, embed, the transform pair, each bin), and every
// pooled buffer is released on the way out.
func fftScanData[T field.Elem](ctx context.Context, data []T, dims []int, o Options) (*Empirical, error) {
	stage := func() error {
		if ctx == nil {
			return nil
		}
		return ctx.Err()
	}
	nd := len(dims)
	if nd < 1 {
		return nil, fmt.Errorf("variogram: rank-0 field")
	}
	nb := o.MaxLag
	pad := make([]int, nd)
	total := 1
	for k, d := range dims {
		pad[k] = padLenFn(d + nb)
		if pad[k] < d+nb {
			return nil, fmt.Errorf("variogram: padded extent %d < %d", pad[k], d+nb)
		}
		total *= pad[k]
	}
	mean := field.Summarize(data).Mean

	// Summed-area table of centred z², extents dims[k]+1 with zero
	// borders at index 0 — the closed form for every W box sum.
	satDims := make([]int, nd)
	satStride := make([]int, nd)
	satTotal := 1
	for k := nd - 1; k >= 0; k-- {
		satDims[k] = dims[k] + 1
		satStride[k] = satTotal
		satTotal *= satDims[k]
	}
	sat := fft.Acquire[float64](satTotal)
	defer fft.Release(sat)
	buildCenteredSqSAT(data, dims, mean, sat, satDims, satStride)
	if err := stage(); err != nil {
		return nil, err
	}

	// r is the one real staging plane: padded centred z in, the c_zz
	// autocorrelation out.
	r := fft.Acquire[T](total)
	defer fft.Release(r)
	clear(r)
	if err := fft.ForEachEmbeddedRow(dims, pad, func(srcOff, dstOff, n int) {
		dst := r[dstOff : dstOff+n]
		for i, v := range data[srcOff : srcOff+n] {
			dst[i] = T(float64(v) - mean)
		}
	}); err != nil {
		return nil, err
	}
	if err := stage(); err != nil {
		return nil, err
	}
	// The padded field is spent; the autocorrelation lands in place.
	if err := fft.Autocorrelate(r, pad, o.Workers); err != nil {
		return nil, err
	}
	czz := r

	// Fold per-offset correlations into distance bins, in the same
	// canonical order as the direct scan, accumulating in float64.
	pStride := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		pStride[k] = acc
		acc *= pad[k]
	}
	bins := offsetsByBinCached(nd, nb)
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	if err := parallel.ForCtx(ctx, nb+1, o.Workers, func(b int) {
		offs := bins[b]
		lo1 := make([]int, nd)
		hi1 := make([]int, nd)
		lo2 := make([]int, nd)
		hi2 := make([]int, nd)
		var s float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			idx := 0
			n := int64(1)
			for k := 0; k < nd; k++ {
				h := int(offs[p+k])
				a := h
				if a < 0 {
					a = -a
				}
				if a >= dims[k] {
					n = 0
					break
				}
				n *= int64(dims[k] - a)
				// Axis ranges of the two overlap boxes B∩(B−h) and
				// B∩(B+h) whose z² sums W enter S(h).
				if h >= 0 {
					idx += h * pStride[k]
					lo1[k], hi1[k] = 0, dims[k]-h
					lo2[k], hi2[k] = h, dims[k]
				} else {
					idx += (pad[k] + h) * pStride[k]
					lo1[k], hi1[k] = a, dims[k]
					lo2[k], hi2[k] = 0, dims[k]-a
				}
			}
			if n <= 0 {
				continue
			}
			wm := boxSum64(sat, satStride, lo1, hi1) + boxSum64(sat, satStride, lo2, hi2)
			d := wm - 2*float64(czz[idx])
			if d < 0 { // roundoff on (near-)constant fields
				d = 0
			}
			s += d
			c += n
		}
		sum[b], cnt[b] = s, c
	}); err != nil {
		return nil, err
	}
	return collect(sum, cnt), nil
}

// buildCenteredSqSAT fills sat (extents satDims[k] = dims[k]+1, with
// zero borders at index 0 on every axis) with the inclusive prefix
// sums of (z−mean)². Every element is written — pooled buffers carry
// unspecified contents — and the axis passes run over contiguous
// blocks, so the build is d linear sweeps.
func buildCenteredSqSAT[T field.Elem](data []T, dims []int, mean float64, sat []float64, satDims, satStride []int) {
	clear(sat)
	nd := len(satDims)
	rowLen := dims[nd-1]
	idx := make([]int, nd)
	src := 0
	for {
		dst := satStride[nd-1]
		for k := 0; k < nd-1; k++ {
			dst += (idx[k] + 1) * satStride[k]
		}
		row := data[src : src+rowLen]
		for i, v := range row {
			d := float64(v) - mean
			sat[dst+i] = d * d
		}
		src += rowLen
		k := nd - 2
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < dims[k] {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			break
		}
	}
	for k := nd - 1; k >= 0; k-- {
		stride := satStride[k]
		block := stride * satDims[k]
		for base := 0; base < len(sat); base += block {
			for j := stride; j < block; j++ {
				sat[base+j] += sat[base+j-stride]
			}
		}
	}
}

// boxSum64 evaluates the box sum over [lo, hi) per axis by
// inclusion–exclusion on the 2^d SAT corners.
func boxSum64(sat []float64, stride, lo, hi []int) float64 {
	nd := len(stride)
	var s float64
	for mask := 0; mask < 1<<uint(nd); mask++ {
		off, bits := 0, 0
		for k := 0; k < nd; k++ {
			if mask>>uint(k)&1 != 0 {
				off += lo[k] * stride[k]
				bits++
			} else {
				off += hi[k] * stride[k]
			}
		}
		if bits&1 != 0 {
			s -= sat[off]
		} else {
			s += sat[off]
		}
	}
	return s
}
