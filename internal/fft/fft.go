// Package fft implements complex and real-input fast Fourier transforms
// of any rank and any length. It is the numerical engine behind the
// exact circulant-embedding Gaussian field sampler, the variogram FFT
// fast path, and the spectral diagnostics. Power-of-two lengths run the
// radix-2 butterfly core, 7-smooth lengths a mixed-radix Cooley–Tukey
// plan, and everything else Bluestein's chirp-z algorithm (plan.go) —
// so padding can be exact (or FastLen-rounded) instead of doubling to
// NextPow2. Real-input fields additionally transform in half-spectrum
// form (realnd.go), halving the storage of every hermitian workload.
// Everything is written once over the two lanes — float64/complex128
// and float32/complex64 — and instantiated per lane; the few steps
// that need real/imag/complex live in lane.go.
package fft

import (
	"fmt"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (and 1 for n <= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Real and Complex are the element constraints of the two lanes: the
// float64 oracle lane (float64, complex128) and the float32 compute
// lane (float32, complex64). Every transform is written once over them;
// a real-input transform takes one of each, and the pair must match.
type (
	Real    interface{ ~float32 | ~float64 }
	Complex interface{ ~complex64 | ~complex128 }
)

// Scalar is any lane element: what the buffer pools hold.
type Scalar interface{ Real | Complex }

// Forward computes the in-place unnormalized forward DFT of x, of any
// length (see the package comment for how lengths map to algorithms):
//
//	X[k] = Σ_j x[j]·exp(-2πi jk/n)
func Forward(x []complex128) error {
	return transform(x, false)
}

// Inverse computes the in-place inverse DFT of x with the 1/n
// normalization so that Inverse(Forward(x)) == x.
func Inverse(x []complex128) error {
	if err := transform(x, true); err != nil {
		return err
	}
	inv := 1 / float64(len(x))
	for i := range x {
		x[i] *= complex(inv, 0)
	}
	return nil
}

func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return fmt.Errorf("fft: empty input")
	}
	if n == 1 {
		return nil
	}
	planFor[complex128](n).transform(x, inverse)
	return nil
}

// Forward2D computes the in-place forward DFT of a rows×cols row-major
// complex grid; any extents.
func Forward2D(x []complex128, rows, cols int) error {
	return separable(x, []int{rows, cols}, false)
}

// Inverse2D computes the normalized in-place inverse 2D DFT.
func Inverse2D(x []complex128, rows, cols int) error {
	return separable(x, []int{rows, cols}, true)
}

// Forward3D computes the in-place forward DFT of an (nz, ny, nx)
// row-major complex volume (x fastest); any extents.
func Forward3D(x []complex128, nz, ny, nx int) error {
	return separable(x, []int{nz, ny, nx}, false)
}

// Inverse3D computes the normalized in-place inverse 3D DFT.
func Inverse3D(x []complex128, nz, ny, nx int) error {
	return separable(x, []int{nz, ny, nx}, true)
}

// separable runs the serial line passes of a 2D/3D transform, last
// axis first. An inverse normalizes after each axis pass by that
// axis's extent — the same per-element operation sequence as applying
// the normalized 1D Inverse to every line in turn, which the samplers'
// output bits depend on.
func separable(x []complex128, dims []int, inverse bool) error {
	if err := checkLen(x, dims); err != nil {
		return err
	}
	for axis := len(dims) - 1; axis >= 0; axis-- {
		axisPass(x, dims, axis, 1, inverse)
		if inverse {
			s := complex(1/float64(dims[axis]), 0)
			for i := range x {
				x[i] *= s
			}
		}
	}
	return nil
}
