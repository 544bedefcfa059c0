package fft

// Line plans: per-length transform strategies that free the engine from
// the power-of-two constraint. Every 1D line transform routes through a
// cached plan chosen by length:
//
//   - power of two        → the radix-2 butterfly core (transformTw)
//   - 7-smooth composite  → mixed-radix Cooley–Tukey: odd factors are
//     peeled recursively (generic small-r DFT combine), the residual
//     power-of-two block transforms with the radix-2 core
//   - anything else       → Bluestein's chirp-z algorithm: the length-n
//     DFT becomes a length-M power-of-two circular convolution
//     (M >= 2n−1) with a precomputed chirp filter spectrum
//
// Plans are immutable once built and cached per length, so repeated
// axis passes over the same extents (the variogram engine, the
// samplers) pay the trigonometry once. Per-line scratch comes from the
// shared buffer pool.

import (
	"math"
	"math/bits"
	"sync"
)

// FastLen returns the smallest even 5-smooth (2^a·3^b·5^c, a >= 1)
// length >= n — the preferred padded extent for the real-input engine:
// within a few percent of n (no power-of-two doubling) while keeping
// every axis on the fast mixed-radix path, and even so the last-axis
// real transform can use the pack-two-reals trick. Arbitrary exact
// lengths remain supported through the Bluestein plan; FastLen is the
// cheap default, not a requirement.
func FastLen(n int) int {
	if n <= 2 {
		return 2
	}
	for m := n; ; m++ {
		if m%2 != 0 {
			continue
		}
		r := m
		for r%2 == 0 {
			r /= 2
		}
		for r%3 == 0 {
			r /= 3
		}
		for r%5 == 0 {
			r /= 5
		}
		if r == 1 {
			return m
		}
	}
}

type planKind uint8

const (
	planPow2 planKind = iota
	planMixed
	planBluestein
)

// dirTables holds one direction's precomputed factors. A plan keeps a
// forward set and an inverse set whose entries are the exact
// conjugates of the forward ones (both rounded once to the lane from
// the same float64 sin/cos), so no core ever conjugates a value: Go
// rejects real/imag/complex on type-parameter operands, and with the
// direction carried by the table the butterfly, mixed-radix and
// Bluestein cores are plain complex arithmetic, written once for both
// lanes. Conjugation is exact in IEEE arithmetic, so reading a
// conjugated table computes bit-for-bit what conjugating on read would.
//
// On the float32 lane a complex64 product stays a complex64 product:
// Go evaluates it in float64 and rounds once. Hand-expanding it into
// float32 multiplies and adds would round every partial product and
// change the bits of most results, so nothing here does.
type dirTables[C Complex] struct {
	// pow2: w is the half twiddle table of transformTw.
	// mixed: w is the full table w[t] = exp(∓2πi t/n); pw is the half
	// table of the residual power-of-two block.
	w, pw []C
	// bluestein: wm is the half twiddle table for length m; chirp is
	// a_j = exp(∓iπ j²/n); bfft is the FFT_m (in this direction) of the
	// opposite direction's chirp, embedded circularly.
	wm, chirp, bfft []C
}

// linePlan holds everything needed to transform one line of its length.
type linePlan[C Complex] struct {
	n       int
	kind    planKind
	factors []int           // mixed: odd prime factors, in dividing order
	m       int             // bluestein: power-of-two convolution length >= 2n-1
	dir     [2]dirTables[C] // forward, inverse
}

// planCaches maps length -> *linePlan, one cache per lane.
var planCaches [2]sync.Map // complex64, complex128

func planFor[C Complex](n int) *linePlan[C] {
	cache := &planCaches[1]
	if _, ok := any((*C)(nil)).(*complex64); ok {
		cache = &planCaches[0]
	}
	if v, ok := cache.Load(n); ok {
		return v.(*linePlan[C])
	}
	p := newPlan[C](n)
	if v, loaded := cache.LoadOrStore(n, p); loaded {
		return v.(*linePlan[C])
	}
	return p
}

// unitRoots returns exp(-iθ_k) and its conjugate for k in [0, count),
// θ_k = 2π·k/n: each entry is computed in float64 and rounded once to
// the lane, so the per-element error is the table's representation
// error, not an accumulated sin/cos drift.
func unitRoots[C Complex](n, count int) (fwd, inv []C) {
	return expTables[C](count, func(k int) float64 { return 2 * math.Pi * float64(k) / float64(n) })
}

// expTables returns exp(-iθ(k)) and exp(+iθ(k)) for k in [0, count).
func expTables[C Complex](count int, theta func(k int) float64) (fwd, inv []C) {
	fwd, inv = make([]C, count), make([]C, count)
	for k := range fwd {
		s, c := math.Sincos(-theta(k))
		fwd[k], inv[k] = C(complex(c, s)), C(complex(c, -s))
	}
	return fwd, inv
}

func newPlan[C Complex](n int) *linePlan[C] {
	p := &linePlan[C]{n: n}
	f, i := &p.dir[0], &p.dir[1]
	if IsPow2(n) {
		p.kind = planPow2
		f.w, i.w = unitRoots[C](n, n/2)
		return p
	}
	// Peel 7-smooth factors: odd primes first, the power-of-two residue
	// last, so every recursion path bottoms out in one contiguous
	// radix-2 block.
	pow2 := 1
	rest := n
	for rest%2 == 0 {
		pow2 *= 2
		rest /= 2
	}
	for _, r := range []int{3, 5, 7} {
		for rest%r == 0 {
			p.factors = append(p.factors, r)
			rest /= r
		}
	}
	if rest == 1 {
		p.kind = planMixed
		f.w, i.w = unitRoots[C](n, n)
		f.pw, i.pw = unitRoots[C](pow2, pow2/2)
		return p
	}
	// Bluestein: X[k] = a_k · (u ⊛ b)[k] with u_j = x_j·a_j,
	// a_j = exp(-iπ j²/n), b_l = exp(+iπ l²/n) embedded circularly. The
	// inverse runs the same convolution with every factor conjugated.
	p.kind = planBluestein
	p.factors = nil
	p.m = NextPow2(2*n - 1)
	f.wm, i.wm = unitRoots[C](p.m, p.m/2)
	f.chirp, i.chirp = expTables[C](n, func(j int) float64 {
		t := (j * j) % (2 * n) // exp(-iπ j²/n) has period 2n in j²
		return math.Pi * float64(t) / float64(n)
	})
	// Each direction's filter is the opposite direction's chirp,
	// transformed in this direction.
	for _, to := range [][2]*dirTables[C]{{f, i}, {i, f}} {
		t, o := to[0], to[1]
		b := make([]C, p.m)
		for j, v := range o.chirp {
			b[j] = v
			if j > 0 {
				b[p.m-j] = v
			}
		}
		transformTw(b, t.wm)
		t.bfft = b
	}
	return p
}

// transform runs the unnormalized DFT (or unnormalized inverse DFT) of
// one line in place. len(x) must equal p.n.
func (p *linePlan[C]) transform(x []C, inverse bool) {
	t := &p.dir[0]
	if inverse {
		t = &p.dir[1]
	}
	switch p.kind {
	case planPow2:
		transformTw(x, t.w)
	case planMixed:
		scratch := Acquire[C](p.n)
		copy(scratch, x)
		p.mixedRec(t, x, scratch, p.n, 1, 1, p.factors)
		Release(scratch)
	default:
		p.bluestein(x, inverse)
	}
}

// transformTw is the radix-2 butterfly core over a precomputed twiddle
// table (len(w) == len(x)/2) of the wanted direction. Factoring the
// table out lets an axis pass of an ND transform share one table
// across all of its lines.
func transformTw[C Complex](x []C, w []C) {
	n := len(x)
	// bit-reversal permutation
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w[k*step]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// mixedRec computes dst[0:n] = DFT_n of the strided sequence src[0],
// src[stride], …, peeling factors[0] by decimation in time; mult is
// p.n/n, the spacing of this level's twiddles in the full table. With
// factors exhausted, n is the residual power-of-two block: gather and
// run the radix-2 core.
func (p *linePlan[C]) mixedRec(t *dirTables[C], dst, src []C, n, stride, mult int, factors []int) {
	if len(factors) == 0 {
		for j := 0; j < n; j++ {
			dst[j] = src[j*stride]
		}
		if n > 1 {
			transformTw(dst, t.pw)
		}
		return
	}
	r := factors[0]
	m := n / r
	for j2 := 0; j2 < r; j2++ {
		p.mixedRec(t, dst[j2*m:(j2+1)*m], src[j2*stride:], m, stride*r, mult*r, factors[1:])
	}
	// Combine: for each residue k2, an r-point DFT of the twiddled
	// sub-spectra u_{j2} = S_{j2}[k2]·w_n^{j2·k2} lands in the slots
	// k2 + m·k1.
	var u [8]C
	rs := p.n / r
	for k2 := 0; k2 < m; k2++ {
		for j2 := 0; j2 < r; j2++ {
			u[j2] = dst[j2*m+k2] * t.w[mult*j2*k2]
		}
		for k1 := 0; k1 < r; k1++ {
			s := u[0]
			for j2 := 1; j2 < r; j2++ {
				s += u[j2] * t.w[(j2*k1%r)*rs]
			}
			dst[k1*m+k2] = s
		}
	}
}

// bluestein runs the chirp-z transform in either direction: the
// inverse is the conjugate of the forward on conjugated input, which is
// the forward pipeline over the conjugated tables — including the
// convolution's own forward/inverse pair, which swaps.
func (p *linePlan[C]) bluestein(x []C, inverse bool) {
	n, m := p.n, p.m
	t, o := &p.dir[0], &p.dir[1]
	if inverse {
		t, o = o, t
	}
	u := Acquire[C](m)
	for j := 0; j < n; j++ {
		u[j] = x[j] * t.chirp[j]
	}
	for j := n; j < m; j++ {
		u[j] = 0
	}
	transformTw(u, t.wm)
	for i := range u {
		u[i] *= t.bfft[i]
	}
	transformTw(u, o.wm)
	s := C(complex(1/float64(m), 0))
	for k := 0; k < n; k++ {
		x[k] = t.chirp[k] * u[k] * s
	}
	Release(u)
}
