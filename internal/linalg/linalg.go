// Package linalg supplies the small dense linear-algebra kernels the
// analysis pipeline needs: least-squares solvers (Householder QR),
// polynomial fitting in the style of numpy.polyfit, an eigenvalues-only
// symmetric eigensolver (Householder tridiagonalisation plus
// implicit-shift QL), and singular values for the local-SVD statistic.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec dimension %d != %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ErrRankDeficient reports a least-squares system without full column rank.
var ErrRankDeficient = errors.New("linalg: rank-deficient system")

// SolveLeastSquares solves min_x ||Ax - b||₂ by Householder QR. A is
// destroyed. Requires Rows >= Cols and full column rank.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: rhs length %d != %d rows", len(b), m)
	}
	if m < n {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", m, n)
	}
	rhs := make([]float64, m)
	copy(rhs, b)
	// Householder QR, applying reflectors to rhs as we go.
	for k := 0; k < n; k++ {
		// norm of column k below the diagonal
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, a.At(i, k))
		}
		if norm == 0 {
			return nil, ErrRankDeficient
		}
		// Choose the sign that avoids cancellation: norm matches the
		// sign of the diagonal entry (JAMA convention).
		if a.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			a.Set(i, k, a.At(i, k)/norm)
		}
		a.Set(k, k, a.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += a.At(i, k) * a.At(i, j)
			}
			s = -s / a.At(k, k)
			for i := k; i < m; i++ {
				a.Set(i, j, a.At(i, j)+s*a.At(i, k))
			}
		}
		var s float64
		for i := k; i < m; i++ {
			s += a.At(i, k) * rhs[i]
		}
		s = -s / a.At(k, k)
		for i := k; i < m; i++ {
			rhs[i] += s * a.At(i, k)
		}
		a.Set(k, k, -norm) // R's diagonal after the reflection is -norm
	}
	// Back substitution with R stored in the upper triangle; note the
	// diagonal holds -||v|| from the reflection step, i.e. R[k][k].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= a.At(i, j) * x[j]
		}
		d := a.At(i, i)
		if d == 0 {
			return nil, ErrRankDeficient
		}
		x[i] = s / d
	}
	return x, nil
}

// PolyFit fits coefficients c so that y ≈ Σ c[k]·x^k (degree deg),
// the role numpy.polyfit plays in the paper's plotting pipeline.
// Coefficients are returned lowest order first.
func PolyFit(x, y []float64, deg int) ([]float64, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("linalg: PolyFit length mismatch %d vs %d", len(x), len(y))
	}
	if deg < 0 {
		return nil, fmt.Errorf("linalg: negative degree %d", deg)
	}
	if len(x) < deg+1 {
		return nil, fmt.Errorf("linalg: %d points cannot determine degree-%d fit", len(x), deg)
	}
	a := NewMatrix(len(x), deg+1)
	for i, xv := range x {
		p := 1.0
		for j := 0; j <= deg; j++ {
			a.Set(i, j, p)
			p *= xv
		}
	}
	return SolveLeastSquares(a, y)
}

// PolyVal evaluates a PolyFit coefficient vector at x (Horner).
func PolyVal(coeffs []float64, x float64) float64 {
	var v float64
	for i := len(coeffs) - 1; i >= 0; i-- {
		v = v*x + coeffs[i]
	}
	return v
}

// ErrNotFinite reports a matrix holding a NaN or an infinity. The
// eigensolver checks for it before any arithmetic, so a non-finite
// input fails fast instead of iterating to the cap.
var ErrNotFinite = errors.New("linalg: matrix has non-finite entries")

// qlMaxIter caps the implicit-QL iterations spent on any one
// eigenvalue. Convergence is cubic, so a handful usually suffice; the
// cap only guards against a non-converging input.
const qlMaxIter = 50

// SymEigen computes all eigenvalues of the symmetric n×n matrix a by
// Householder tridiagonalisation followed by implicit-shift QL
// (Golub & Van Loan §8.3). Only the lower triangle of a is read, and a
// is destroyed. Eigenvalues are returned in descending order. Only
// values (not vectors) are computed, which is all the truncation-level
// statistic requires. A non-finite entry yields ErrNotFinite.
func SymEigen(a *Matrix) ([]float64, error) {
	return SymEigenInto(a, make([]float64, a.Rows), make([]float64, a.Rows))
}

// SymEigenInto is SymEigen with caller-owned scratch, for callers that
// solve many small systems: d and e must hold at least n values. The
// eigenvalues come back in d[:n], descending; e is overwritten.
func SymEigenInto(a *Matrix, d, e []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SymEigen needs square matrix, got %dx%d", n, a.Cols)
	}
	if len(d) < n || len(e) < n {
		return nil, fmt.Errorf("linalg: SymEigen scratch %d/%d shorter than n=%d", len(d), len(e), n)
	}
	d, e = d[:n], e[:n]
	if n == 0 {
		return d, nil
	}
	for i := 0; i < n; i++ {
		for _, v := range a.Data[i*n : i*n+i+1] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, ErrNotFinite
			}
		}
	}
	tridiagonalize(a.Data, n, d, e)
	if err := tql(d, e, qlMaxIter); err != nil {
		return nil, err
	}
	slices.Sort(d)
	slices.Reverse(d)
	return d, nil
}

// tridiagonalize reduces the symmetric matrix held in the lower
// triangle of the row-major n×n array a to tridiagonal form by
// Householder reflections (the eigenvalues-only half of tred2). Row i
// is annihilated left of its subdiagonal, and the trailing update
// touches only lower-triangle rows, so every inner loop runs over
// contiguous memory. On return d holds the diagonal and e[i] the
// subdiagonal entry (i, i-1), with e[0] = 0.
func tridiagonalize(a []float64, n int, d, e []float64) {
	for i := n - 1; i > 0; i-- {
		u := a[i*n : i*n+i] // row i left of the diagonal
		var scale float64
		if i > 1 {
			for _, v := range u {
				scale += math.Abs(v)
			}
		}
		if scale == 0 { // nothing to annihilate
			e[i] = u[i-1]
			continue
		}
		var h float64
		for k := range u {
			u[k] /= scale
			h += u[k] * u[k]
		}
		f := u[i-1]
		g := math.Sqrt(h)
		if f >= 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		u[i-1] = f - g
		// p = A·u/h over the leading i×i block, read row by row from the
		// lower triangle; e[:i] is free until those rows are reached.
		p := e[:i]
		clear(p)
		for j := 0; j < i; j++ {
			rj := a[j*n : j*n+j]
			uj := u[j]
			var s float64
			for k, v := range rj {
				s += v * u[k]
				p[k] += v * uj
			}
			p[j] += s + a[j*n+j]*uj
		}
		var pu float64
		for j := range p {
			p[j] /= h
			pu += p[j] * u[j]
		}
		hh := pu / (h + h)
		for j := range p {
			p[j] -= hh * u[j]
		}
		// A ← A − u·pᵀ − p·uᵀ on the lower triangle.
		for j := 0; j < i; j++ {
			uj, pj := u[j], p[j]
			rj := a[j*n : j*n+j+1]
			for k := range rj {
				rj[k] -= uj*p[k] + pj*u[k]
			}
		}
	}
	e[0] = 0
	for i := 0; i < n; i++ {
		d[i] = a[i*n+i]
	}
}

// hypot is √(x²+y²) by the direct formula, falling back to the
// overflow- and underflow-safe math.Hypot only when the squares leave
// the range where the direct formula is exact to rounding. The QL
// sweep takes one per rotation, and math.Hypot costs as much as the
// rest of the rotation.
func hypot(x, y float64) float64 {
	r := math.Sqrt(x*x + y*y)
	if r < 0x1p-480 || r > 0x1p480 {
		return math.Hypot(x, y)
	}
	return r
}

// tql finds the eigenvalues of the symmetric tridiagonal matrix with
// diagonal d and subdiagonal e[1:] by implicit-shift QL (tqli),
// overwriting d with them (unordered) and destroying e; n ≥ 1. An
// off-diagonal entry deflates when |e[m]| ≤ ε·(|d[m]|+|d[m+1]|), a
// test relative to the neighbouring diagonal, so the solve does not
// depend on the units of the matrix. More than maxIter QL steps on any
// one eigenvalue is an error.
func tql(d, e []float64, maxIter int) error {
	n := len(d)
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				if math.Abs(e[m]) <= eps*(math.Abs(d[m])+math.Abs(d[m+1])) {
					break
				}
			}
			if m == l {
				break
			}
			if iter == maxIter {
				return fmt.Errorf("linalg: implicit QL did not converge in %d iterations", maxIter)
			}
			// Wilkinson-style shift from the leading 2×2 block.
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = hypot(f, g)
				e[i+1] = r
				if r == 0 { // underflow: deflate and restart
					d[i+1] -= p
					e[m] = 0
					break
				}
				inv := 1 / r
				s = f * inv
				c = g * inv
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if r == 0 && i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// SingularValues returns the singular values of the m×n matrix a in
// descending order, computed as sqrt of the eigenvalues of AᵀA (or AAᵀ,
// whichever is smaller). Adequate accuracy for the 32×32 windows of the
// local-SVD statistic; tiny negative eigenvalues from roundoff clamp to 0.
func SingularValues(a *Matrix) ([]float64, error) {
	m, n := a.Rows, a.Cols
	// gram = smaller of AᵀA (n×n) and AAᵀ (m×m)
	k := n
	gramT := false
	if m < n {
		k = m
		gramT = true
	}
	g := NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := i; j < k; j++ {
			var s float64
			if gramT {
				for t := 0; t < n; t++ {
					s += a.At(i, t) * a.At(j, t)
				}
			} else {
				for t := 0; t < m; t++ {
					s += a.At(t, i) * a.At(t, j)
				}
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	eig, err := SymEigen(g)
	if err != nil {
		return nil, err
	}
	sv := make([]float64, k)
	for i, e := range eig {
		if e < 0 {
			e = 0
		}
		sv[i] = math.Sqrt(e)
	}
	return sv, nil
}

// GoldenMinimize finds the minimizer of f on [lo, hi] by golden-section
// search to the given absolute tolerance on x.
func GoldenMinimize(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation (0 for len < 1).
func Std(x []float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(n))
}
