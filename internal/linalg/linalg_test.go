package linalg

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"lossycorr/internal/xrand"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("clone aliases")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(1, 0, 3)
	m.Set(1, 1, 4)
	y, err := m.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// overdetermined consistent system: y = 2 + 3x
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	sol, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol[0]-2) > 1e-10 || math.Abs(sol[1]-3) > 1e-10 {
		t.Fatalf("solution %v", sol)
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	// random overdetermined system: residual must be orthogonal to columns
	rng := xrand.New(77)
	m, n := 12, 4
	a := NewMatrix(m, n)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		b[i] = rng.NormFloat64()
	}
	orig := a.Clone()
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := orig.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		var dot float64
		for i := 0; i < m; i++ {
			dot += orig.At(i, j) * (b[i] - ax[i])
		}
		if math.Abs(dot) > 1e-9 {
			t.Fatalf("residual not orthogonal to column %d: %v", j, dot)
		}
	}
}

func TestSolveLeastSquaresErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("expected underdetermined error")
	}
	a = NewMatrix(3, 2) // zero columns: rank deficient
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected rank-deficient error")
	}
	a = NewMatrix(3, 1)
	if _, err := SolveLeastSquares(a, []float64{1, 2}); err == nil {
		t.Fatal("expected rhs length error")
	}
}

func TestPolyFitRecoversPolynomial(t *testing.T) {
	coeffs := []float64{1, -2, 0.5}
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = PolyVal(coeffs, x)
	}
	got, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coeffs {
		if math.Abs(got[i]-coeffs[i]) > 1e-9 {
			t.Fatalf("coeff %d: %v want %v", i, got[i], coeffs[i])
		}
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Fatal("expected length mismatch")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Fatal("expected negative degree error")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, 3); err == nil {
		t.Fatal("expected too-few-points error")
	}
}

func TestPolyVal(t *testing.T) {
	if v := PolyVal([]float64{1, 2, 3}, 2); v != 1+4+12 {
		t.Fatalf("PolyVal=%v", v)
	}
	if v := PolyVal(nil, 5); v != 0 {
		t.Fatalf("empty PolyVal=%v", v)
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -1)
	a.Set(2, 2, 7)
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{7, 3, -1}
	for i := range want {
		if math.Abs(eig[i]-want[i]) > 1e-10 {
			t.Fatalf("eig %v want %v", eig, want)
		}
	}
}

func TestSymEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig[0]-3) > 1e-10 || math.Abs(eig[1]-1) > 1e-10 {
		t.Fatalf("eig %v", eig)
	}
}

func TestSymEigenTraceInvariant(t *testing.T) {
	rng := xrand.New(5)
	n := 10
	a := NewMatrix(n, n)
	var trace float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		trace += a.At(i, i)
	}
	eig, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range eig {
		sum += e
	}
	if math.Abs(sum-trace) > 1e-8 {
		t.Fatalf("trace %v vs eig sum %v", trace, sum)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

// jacobiEigen is the test-only oracle: the cyclic Jacobi eigensolver
// SymEigen used before the tridiagonal QL solve, with its stop test
// made relative to ‖A‖_F so it converges at any scale. a is destroyed;
// eigenvalues come back in descending order.
func jacobiEigen(a *Matrix) []float64 {
	n := a.Rows
	var norm2 float64
	for _, v := range a.Data {
		norm2 += v * v
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off <= 1e-32*norm2 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = a.At(i, i)
	}
	slices.Sort(eig)
	slices.Reverse(eig)
	return eig
}

func randomSymmetric(n int, seed uint64) *Matrix {
	rng := xrand.New(seed)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// checkAgainstJacobi solves a with SymEigen and with the Jacobi oracle
// and requires every eigenvalue to agree within 1e-12·‖A‖_F.
func checkAgainstJacobi(t *testing.T, name string, a *Matrix) {
	t.Helper()
	var norm2 float64
	for _, v := range a.Data {
		norm2 += v * v
	}
	tol := 1e-12 * math.Sqrt(norm2)
	want := jacobiEigen(a.Clone())
	got, err := SymEigen(a.Clone())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d eigenvalues, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: eigenvalue %d = %v, Jacobi %v (tol %v)", name, i, got[i], want[i], tol)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] > got[i-1] {
			t.Fatalf("%s: eigenvalues not descending: %v", name, got)
		}
	}
}

// TestSymEigenMatchesJacobi pins the tridiagonal QL solver against the
// Jacobi oracle on random symmetric matrices of assorted orders,
// including the empty one, odd ones and orders past the 32 the
// statistic uses.
func TestSymEigenMatchesJacobi(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8, 16, 32, 33, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			checkAgainstJacobi(t, "random", randomSymmetric(n, seed*31+uint64(n)))
		}
	}
}

// TestSymEigenStructuredMatchesJacobi covers the structured cases a
// Gram matrix can take: zero, diagonal, repeated eigenvalues, rank 1,
// and a graded matrix spanning 1e-150…1e150.
func TestSymEigenStructuredMatchesJacobi(t *testing.T) {
	checkAgainstJacobi(t, "zero", NewMatrix(12, 12))

	diag := NewMatrix(9, 9)
	for i := 0; i < 9; i++ {
		diag.Set(i, i, float64((i*7)%9)-4)
	}
	checkAgainstJacobi(t, "diagonal", diag)

	// Q·diag(3,3,3,1,1,-2)·Qᵀ with Q a product of Givens rotations.
	rep := NewMatrix(6, 6)
	for i, v := range []float64{3, 3, 3, 1, 1, -2} {
		rep.Set(i, i, v)
	}
	rng := xrand.New(8)
	for r := 0; r < 20; r++ {
		p, q := rng.Intn(6), rng.Intn(6)
		if p == q {
			continue
		}
		th := rng.Float64() * math.Pi
		c, s := math.Cos(th), math.Sin(th)
		for k := 0; k < 6; k++ { // rows
			ap, aq := rep.At(p, k), rep.At(q, k)
			rep.Set(p, k, c*ap-s*aq)
			rep.Set(q, k, s*ap+c*aq)
		}
		for k := 0; k < 6; k++ { // columns
			ap, aq := rep.At(k, p), rep.At(k, q)
			rep.Set(k, p, c*ap-s*aq)
			rep.Set(k, q, s*ap+c*aq)
		}
	}
	for i := 0; i < 6; i++ { // symmetrise the rotation roundoff
		for j := 0; j < i; j++ {
			v := (rep.At(i, j) + rep.At(j, i)) / 2
			rep.Set(i, j, v)
			rep.Set(j, i, v)
		}
	}
	checkAgainstJacobi(t, "repeated", rep)

	rank1 := NewMatrix(16, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			rank1.Set(i, j, float64(i-7)*float64(j-7)/10)
		}
	}
	checkAgainstJacobi(t, "rank1", rank1)

	const gn = 11
	graded := randomSymmetric(gn, 99)
	for i := 0; i < gn; i++ {
		for j := 0; j < gn; j++ {
			si := math.Pow(10, float64(30*i-150)/2)
			sj := math.Pow(10, float64(30*j-150)/2)
			graded.Set(i, j, graded.At(i, j)*si*sj)
		}
	}
	checkAgainstJacobi(t, "graded", graded)
}

// TestSymEigenNonFinite checks that a NaN or an infinity anywhere in
// the lower triangle fails fast with ErrNotFinite.
func TestSymEigenNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := randomSymmetric(8, 4)
		a.Set(5, 2, bad)
		a.Set(2, 5, bad)
		if _, err := SymEigen(a); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("entry %v: err %v, want ErrNotFinite", bad, err)
		}
	}
}

// TestSymEigenIterationCap drives the QL loop with a cap it cannot
// meet and expects the convergence error rather than a wrong answer.
func TestSymEigenIterationCap(t *testing.T) {
	a := randomSymmetric(6, 12)
	d, e := make([]float64, 6), make([]float64, 6)
	tridiagonalize(a.Data, 6, d, e)
	err := tql(d, e, 0)
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("err %v, want a convergence error", err)
	}
}

// TestSymEigenIntoScratch checks the scratch variant returns the
// eigenvalues in d and rejects short scratch.
func TestSymEigenIntoScratch(t *testing.T) {
	a := randomSymmetric(7, 3)
	want, err := SymEigen(a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	d, e := make([]float64, 9), make([]float64, 9)
	got, err := SymEigenInto(a.Clone(), d, e)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || &got[0] != &d[0] {
		t.Fatalf("SymEigenInto %v, want %v in d", got, want)
	}
	if _, err := SymEigenInto(a.Clone(), d[:6], e); err == nil {
		t.Fatal("expected short-scratch error")
	}
}

func BenchmarkSymEigen32(b *testing.B) {
	src := randomSymmetric(32, 5)
	a := NewMatrix(32, 32)
	d, e := make([]float64, 32), make([]float64, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(a.Data, src.Data)
		if _, err := SymEigenInto(a, d, e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiEigen32(b *testing.B) {
	src := randomSymmetric(32, 5)
	a := NewMatrix(32, 32)
	for i := 0; i < b.N; i++ {
		copy(a.Data, src.Data)
		jacobiEigen(a)
	}
}

func TestSingularValuesDiagonal(t *testing.T) {
	a := NewMatrix(3, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, -3) // singular value is |−3| = 3
	sv, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 2 || math.Abs(sv[0]-4) > 1e-9 || math.Abs(sv[1]-3) > 1e-9 {
		t.Fatalf("sv %v", sv)
	}
}

func TestSingularValuesWideMatrix(t *testing.T) {
	a := NewMatrix(2, 5)
	for j := 0; j < 5; j++ {
		a.Set(0, j, 1)
	}
	sv, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != 2 {
		t.Fatalf("want 2 singular values, got %d", len(sv))
	}
	if math.Abs(sv[0]-math.Sqrt(5)) > 1e-9 || sv[1] > 1e-9 {
		t.Fatalf("sv %v", sv)
	}
}

func TestSingularValuesFrobenius(t *testing.T) {
	rng := xrand.New(19)
	a := NewMatrix(6, 4)
	var frob float64
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
		frob += a.Data[i] * a.Data[i]
	}
	sv, err := SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range sv {
		sum += s * s
	}
	if math.Abs(sum-frob) > 1e-8*frob {
		t.Fatalf("Frobenius %v vs Σσ² %v", frob, sum)
	}
}

func TestGoldenMinimize(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	x := GoldenMinimize(f, 0, 10, 1e-8)
	if math.Abs(x-2.5) > 1e-6 {
		t.Fatalf("minimizer %v", x)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty mean/std")
	}
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(x) != 5 {
		t.Fatalf("mean %v", Mean(x))
	}
	if math.Abs(Std(x)-2) > 1e-12 {
		t.Fatalf("std %v", Std(x))
	}
}
