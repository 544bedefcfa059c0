package variogram

// The PR 3 all-complex FFT engine, retained verbatim (test-only) as
// the before/after reference: the memory smoke asserts the real-input
// engine's peak transform-buffer bytes against this engine's working
// set, the benchmarks report both, and the equivalence tests use it as
// a second oracle. It pads every extent to NextPow2(dim + MaxLag) and
// holds three full complex buffers of the padded size.

import (
	"fmt"
	"math"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/parallel"
)

func fftScanFieldComplexRef(f *field.Field, o Options) (*Empirical, error) {
	dims := f.Shape
	nd := len(dims)
	if nd < 1 {
		return nil, fmt.Errorf("variogram: rank-0 field")
	}
	nb := o.MaxLag
	pad := make([]int, nd)
	total := 1
	for k, d := range dims {
		pad[k] = fft.NextPow2(d + nb)
		total *= pad[k]
	}

	bz := fft.Acquire[complex128](total)
	defer fft.Release(bz)
	if err := fft.PadReal(bz, pad, f.Data, dims); err != nil {
		return nil, err
	}
	bw := fft.Acquire[complex128](total)
	defer fft.Release(bw)
	for i, v := range bz {
		r := real(v)
		bw[i] = complex(r*r, 0)
	}
	bm := fft.Acquire[complex128](total)
	defer fft.Release(bm)
	for i := range bm {
		bm[i] = 0
	}
	if err := fft.ForEachEmbeddedRow(dims, pad, func(_, dstOff, n int) {
		for i := dstOff; i < dstOff+n; i++ {
			bm[i] = 1
		}
	}); err != nil {
		return nil, err
	}

	for _, buf := range [][]complex128{bz, bw, bm} {
		if err := fft.ForwardND(buf, pad, o.Workers); err != nil {
			return nil, err
		}
	}
	for i, m := range bm {
		w := bw[i]
		bw[i] = complex(real(w), -imag(w)) * m
		z := bz[i]
		bz[i] = complex(real(z)*real(z)+imag(z)*imag(z),
			real(m)*real(m)+imag(m)*imag(m))
	}
	if err := fft.InverseND(bz, pad, o.Workers); err != nil {
		return nil, err
	}
	if err := fft.InverseND(bw, pad, o.Workers); err != nil {
		return nil, err
	}

	pStride := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		pStride[k] = acc
		acc *= pad[k]
	}
	bins := offsetsByBinCached(nd, nb)
	sum := make([]float64, nb+1)
	cnt := make([]int64, nb+1)
	parallel.For(nb+1, o.Workers, func(b int) {
		offs := bins[b]
		var s float64
		var c int64
		for p := 0; p < len(offs); p += nd {
			idx, neg := 0, 0
			for k := 0; k < nd; k++ {
				h := int(offs[p+k])
				if h >= 0 {
					idx += h * pStride[k]
					if h > 0 {
						neg += (pad[k] - h) * pStride[k]
					}
				} else {
					idx += (pad[k] + h) * pStride[k]
					neg += -h * pStride[k]
				}
			}
			n := int64(math.Round(imag(bz[idx])))
			if n <= 0 {
				continue
			}
			d := real(bw[idx]) + real(bw[neg]) - 2*real(bz[idx])
			if d < 0 {
				d = 0
			}
			s += d
			c += n
		}
		sum[b], cnt[b] = s, c
	})
	return collect(sum, cnt), nil
}

// complexRefPeakBytes is the PR 3 engine's transform-buffer working
// set for a field shape and cutoff: three complex buffers of the
// NextPow2-padded size.
func complexRefPeakBytes(shape []int, maxLag int) int64 {
	total := int64(1)
	for _, d := range shape {
		total *= int64(fft.NextPow2(d + maxLag))
	}
	return 3 * 16 * total
}
