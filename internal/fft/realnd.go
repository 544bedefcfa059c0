package fft

// Real-input transforms in half-spectrum form. A real field's spectrum
// is conjugate-symmetric, so only the last-axis bins k = 0..n/2 need to
// be stored: ForwardRealND produces (and InverseRealND consumes) a
// row-major array whose last extent is n/2+1 instead of n — half the
// complex storage of the full spectrum, and none of the redundant
// arithmetic.
//
// The last axis is the real<->complex boundary. For even extents it
// uses the classic pack-two-reals trick: the n real samples of a line
// are packed into an n/2-point complex FFT whose output is unpicked
// into the n/2+1 hermitian bins with one extra twiddle pass — a real
// line transform at roughly half the cost of a complex one. Odd extents
// (exact Bluestein-length padding) fall back to a full complex line
// transform and keep the first (n+1)/2 bins. Every other axis is an
// ordinary complex axis pass over the half-width array, so the whole
// pipeline inherits the plan layer's any-length support and the
// bit-identical-at-any-worker-count property of axisPass.

import "fmt"

// HalfLen returns the element count of the half-spectrum of a real
// field with the given dims: the last axis stores dims[last]/2+1 bins,
// every other axis its full extent.
func HalfLen(dims []int) int {
	if len(dims) == 0 {
		return 0
	}
	n := dims[len(dims)-1]/2 + 1
	for _, d := range dims[:len(dims)-1] {
		n *= d
	}
	return n
}

// halfDims returns dims with the last extent replaced by its
// half-spectrum bin count.
func halfDims(dims []int) []int {
	hd := make([]int, len(dims))
	copy(hd, dims)
	hd[len(dims)-1] = dims[len(dims)-1]/2 + 1
	return hd
}

// EmbedReal zero-fills dst (shape dstDims) and copies the real field
// src (shape srcDims, same rank, extents <= dstDims) into its leading
// corner — the real-typed sibling of PadReal, feeding ForwardRealND
// without a complex-widened staging buffer.
func EmbedReal(dst []float64, dstDims []int, src []float64, srcDims []int) error {
	n := 1
	for _, d := range dstDims {
		n *= d
	}
	if len(dst) != n {
		return fmt.Errorf("fft: pad buffer length %d != product of %v", len(dst), dstDims)
	}
	for i := range dst {
		dst[i] = 0
	}
	return ForEachEmbeddedRow(srcDims, dstDims, func(srcOff, dstOff, n int) {
		copy(dst[dstOff:dstOff+n], src[srcOff:srcOff+n])
	})
}

// checkReal validates a real-input transform's shapes: positive
// extents, the real buffer holding their product, the spectrum
// HalfLen(dims).
func checkReal[R Real, C Complex](re []R, dims []int, spec []C) error {
	if len(dims) == 0 {
		return fmt.Errorf("fft: rank-0 transform")
	}
	if err := checkLen(re, dims); err != nil {
		return err
	}
	if len(spec) != HalfLen(dims) {
		return fmt.Errorf("fft: half-spectrum length %d != HalfLen %d", len(spec), HalfLen(dims))
	}
	return nil
}

// ForwardRealND computes the unnormalized forward DFT of the real
// row-major field src (shape dims, any extents) into dst in
// half-spectrum form; len(dst) must be HalfLen(dims), and the lane of
// dst must match src's (complex128 for float64, complex64 for float32).
// dst is fully overwritten (its prior contents are irrelevant, so
// pooled buffers need no zeroing). The result is bit-identical at any
// worker count.
func ForwardRealND[R Real, C Complex](src []R, dims []int, dst []C, workers int) error {
	if err := checkReal(src, dims, dst); err != nil {
		return err
	}
	nd := len(dims)
	nx := dims[nd-1]
	hc := nx/2 + 1
	lines := len(src) / nx

	if nx%2 == 0 && nx > 1 {
		// Even last axis: pack pairs into an nx/2-point complex FFT,
		// then unpick the hermitian bins.
		N := nx / 2
		p := planFor[C](N)
		rw, _ := unitRoots[C](nx, N+1)
		forLineSpans(lines, workers, N, func(y []C, li int) {
			loadLine(y, src[li*nx:(li+1)*nx])
			p.transform(y, false)
			unpickHalf(dst[li*hc:(li+1)*hc], y, rw)
		})
	} else {
		// Odd (or unit) last axis: full complex line transform, keep
		// the first hc bins.
		p := planFor[C](nx)
		forLineSpans(lines, workers, nx, func(y []C, li int) {
			loadLine(y, src[li*nx:(li+1)*nx])
			p.transform(y, false)
			copy(dst[li*hc:(li+1)*hc], y[:hc])
		})
	}

	// Remaining axes: ordinary complex passes over the half-width array.
	hd := halfDims(dims)
	for axis := nd - 2; axis >= 0; axis-- {
		axisPass(dst, hd, axis, workers, false)
	}
	return nil
}

// InverseRealND inverts ForwardRealND: spec is a half-spectrum of shape
// dims (it is clobbered), dst receives the real field and must have
// length = product of dims. The normalization matches Inverse/InverseND:
// InverseRealND(ForwardRealND(x)) == x (to the lane's roundoff). The
// normalization factor is computed in float64 and rounded once to the
// lane. Bit-identical at any worker count.
func InverseRealND[R Real, C Complex](spec []C, dims []int, dst []R, workers int) error {
	if err := checkReal(dst, dims, spec); err != nil {
		return err
	}
	nd := len(dims)
	nx := dims[nd-1]
	hc := nx/2 + 1
	lines := len(dst) / nx // also the product of the leading extents

	// Leading axes first: unnormalized inverse passes at fixed last-axis
	// bin; per-line hermitian symmetry along the last axis survives them.
	hd := halfDims(dims)
	for axis := 0; axis < nd-1; axis++ {
		axisPass(spec, hd, axis, workers, true)
	}

	if nx%2 == 0 && nx > 1 {
		// Even last axis: rebuild the packed N-point spectrum from the
		// hermitian bins, one unnormalized inverse FFT of length N per
		// line, then unpack interleaved reals.
		N := nx / 2
		p := planFor[C](N)
		_, rwInv := unitRoots[C](nx, N+1)
		scale := 1 / (float64(N) * float64(lines))
		forLineSpans(lines, workers, N, func(y []C, li int) {
			repackHalf(y, spec[li*hc:(li+1)*hc], rwInv)
			p.transform(y, true)
			storeLine(dst[li*nx:(li+1)*nx], y, scale)
		})
	} else {
		// Odd (or unit) last axis: mirror the hermitian bins into a full
		// line, one unnormalized complex inverse, keep the real parts.
		p := planFor[C](nx)
		scale := 1 / (float64(nx) * float64(lines))
		forLineSpans(lines, workers, nx, func(y []C, li int) {
			mirrorHalf(y, spec[li*hc:(li+1)*hc])
			p.transform(y, true)
			storeLine(dst[li*nx:(li+1)*nx], y, scale)
		})
	}
	return nil
}

// Autocorrelate replaces the real field z (shape dims, zero-padded by
// the caller wherever wrap-around must not alias) with its circular
// autocorrelation c(h) = Σ_x z(x)·z(x+h): one forward real transform,
// |Z|², one inverse, through a single pooled half-spectrum of z's
// lane. Bit-identical at any worker count.
func Autocorrelate[R Real](z []R, dims []int, workers int) error {
	switch z := any(z).(type) {
	case []float64:
		return autocorrelate[float64, complex128](z, dims, workers)
	case []float32:
		return autocorrelate[float32, complex64](z, dims, workers)
	}
	panic(errLane)
}

func autocorrelate[R Real, C Complex](z []R, dims []int, workers int) error {
	if len(dims) == 0 {
		return fmt.Errorf("fft: rank-0 transform")
	}
	sp := Acquire[C](HalfLen(dims))
	defer Release(sp)
	if err := ForwardRealND(z, dims, sp, workers); err != nil {
		return err
	}
	AbsSq(sp)
	return InverseRealND(sp, dims, z, workers)
}

// MulConj sets a[i] = conj(a[i])·b[i] — the cross-correlation spectrum
// of the two real signals whose half-spectra a and b hold. The product
// of a conjugated hermitian spectrum with a hermitian spectrum is
// hermitian, so the result is a valid InverseRealND input.
func MulConj(a, b []complex128) {
	for i, v := range a {
		a[i] = complex(real(v), -imag(v)) * b[i]
	}
}

// MulConjScale sets a[i] = s·conj(a[i])·b[i] — a scaled cross-spectrum,
// hermitian for the same reason MulConj's result is. The sharded
// streaming variogram uses it to seed its structure-function
// accumulator with the −2·c_zz term in place.
func MulConjScale(a, b []complex128, s float64) {
	cs := complex(s, 0)
	for i, v := range a {
		a[i] = cs * complex(real(v), -imag(v)) * b[i]
	}
}

// AddMulConjScale accumulates acc[i] += s·conj(a[i])·b[i] without
// disturbing a or b — the fold step of the sharded streaming variogram,
// which sums three cross-spectra into one accumulator so only one
// inverse transform is needed per shard.
func AddMulConjScale(acc, a, b []complex128, s float64) {
	cs := complex(s, 0)
	for i, v := range a {
		acc[i] += cs * complex(real(v), -imag(v)) * b[i]
	}
}
