package fft

// The only lane-specific code of the package. Go does not accept the
// real/imag/complex builtins on type-parameter values, so the few steps
// that need them — packing two reals into a complex line, unpicking
// and repacking hermitian bins, extracting real output, and |z|² —
// dispatch on the lane once per call (per line, inside the
// real-input transforms) and run a concrete loop. The two arms of each
// helper are the same source text; everything else (plans, butterflies,
// axis passes, pools) is written once over Real/Complex.

const errLane = "fft: unsupported lane (want float64/complex128 or float32/complex64)"

// loadLine fills the complex line y from the real samples in: packed
// in pairs, y[j] = in[2j] + i·in[2j+1], when len(in) == 2·len(y), and
// widened, y[j] = in[j], otherwise.
func loadLine[R Real, C Complex](y []C, in []R) {
	switch y := any(y).(type) {
	case []complex128:
		in := any(in).([]float64)
		if len(in) == 2*len(y) {
			for j := range y {
				y[j] = complex(in[2*j], in[2*j+1])
			}
		} else {
			for j, v := range in {
				y[j] = complex(v, 0)
			}
		}
	case []complex64:
		in := any(in).([]float32)
		if len(in) == 2*len(y) {
			for j := range y {
				y[j] = complex(in[2*j], in[2*j+1])
			}
		} else {
			for j, v := range in {
				y[j] = complex(v, 0)
			}
		}
	default:
		panic(errLane)
	}
}

// storeLine writes the scaled real output of an inverse line: the
// interleaved real and imaginary parts of y when len(out) == 2·len(y),
// the real parts otherwise. scale is rounded once to the lane.
func storeLine[R Real, C Complex](out []R, y []C, scale float64) {
	switch y := any(y).(type) {
	case []complex128:
		out := any(out).([]float64)
		if len(out) == 2*len(y) {
			for j, v := range y {
				out[2*j], out[2*j+1] = real(v)*scale, imag(v)*scale
			}
		} else {
			for j := range out {
				out[j] = real(y[j]) * scale
			}
		}
	case []complex64:
		out, scale := any(out).([]float32), float32(scale)
		if len(out) == 2*len(y) {
			for j, v := range y {
				out[2*j], out[2*j+1] = real(v)*scale, imag(v)*scale
			}
		} else {
			for j := range out {
				out[j] = real(y[j]) * scale
			}
		}
	default:
		panic(errLane)
	}
}

// unpickHalf turns the N-point FFT y of a pair-packed real line into
// its N+1 hermitian bins: out[k] = E_k + rw[k]·O_k, where E and O are
// the spectra of the even and odd samples.
func unpickHalf[C Complex](out, y, rw []C) {
	switch y := any(y).(type) {
	case []complex128:
		out, rw := any(out).([]complex128), any(rw).([]complex128)
		N := len(y)
		for k := 0; k <= N; k++ {
			yk, ynk := y[k%N], y[(N-k)%N]
			cynk := complex(real(ynk), -imag(ynk))
			e := (yk + cynk) * 0.5
			o := (yk - cynk) * complex(0, -0.5)
			out[k] = e + rw[k]*o
		}
	case []complex64:
		out, rw := any(out).([]complex64), any(rw).([]complex64)
		N := len(y)
		for k := 0; k <= N; k++ {
			yk, ynk := y[k%N], y[(N-k)%N]
			cynk := complex(real(ynk), -imag(ynk))
			e := (yk + cynk) * 0.5
			o := (yk - cynk) * complex(0, -0.5)
			out[k] = e + rw[k]*o
		}
	default:
		panic(errLane)
	}
}

// repackHalf inverts unpickHalf ahead of an inverse line transform:
// from the hermitian bins in (length N+1) it rebuilds the packed
// N-point spectrum y; rwInv holds the conjugated unpick factors.
func repackHalf[C Complex](y, in, rwInv []C) {
	switch y := any(y).(type) {
	case []complex128:
		in, rwInv := any(in).([]complex128), any(rwInv).([]complex128)
		N := len(y)
		for k := 0; k < N; k++ {
			xk, xnk := in[k], in[N-k]
			cxnk := complex(real(xnk), -imag(xnk))
			e := (xk + cxnk) * 0.5
			o := (xk - cxnk) * 0.5 * rwInv[k]
			y[k] = e + o*complex(0, 1)
		}
	case []complex64:
		in, rwInv := any(in).([]complex64), any(rwInv).([]complex64)
		N := len(y)
		for k := 0; k < N; k++ {
			xk, xnk := in[k], in[N-k]
			cxnk := complex(real(xnk), -imag(xnk))
			e := (xk + cxnk) * 0.5
			o := (xk - cxnk) * 0.5 * rwInv[k]
			y[k] = e + o*complex(0, 1)
		}
	default:
		panic(errLane)
	}
}

// mirrorHalf expands the hermitian bins in of an odd-length line into
// the full spectrum y: y[k] = in[k] below len(in), conj(y[n−k]) above.
func mirrorHalf[C Complex](y, in []C) {
	copy(y, in)
	switch y := any(y).(type) {
	case []complex128:
		for k := len(in); k < len(y); k++ {
			v := y[len(y)-k]
			y[k] = complex(real(v), -imag(v))
		}
	case []complex64:
		for k := len(in); k < len(y); k++ {
			v := y[len(y)-k]
			y[k] = complex(real(v), -imag(v))
		}
	default:
		panic(errLane)
	}
}

// AbsSq sets a[i] = |a[i]|² — the autocorrelation spectrum of the real
// signal whose half-spectrum a holds. Real and even, hence hermitian: a
// valid InverseRealND input.
func AbsSq[C Complex](a []C) {
	switch a := any(a).(type) {
	case []complex128:
		for i, v := range a {
			a[i] = complex(real(v)*real(v)+imag(v)*imag(v), 0)
		}
	case []complex64:
		for i, v := range a {
			a[i] = complex(real(v)*real(v)+imag(v)*imag(v), 0)
		}
	default:
		panic(errLane)
	}
}
