package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"lossycorr/internal/xrand"
)

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d)=%d want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("IsPow2(%d) false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 12} {
		if IsPow2(n) {
			t.Fatalf("IsPow2(%d) true", n)
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := xrand.New(17)
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := Forward(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestInverseRoundtrip(t *testing.T) {
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 16, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		if err := Forward(y); err != nil {
			t.Fatal(err)
		}
		if err := Inverse(y); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if cmplx.Abs(y[i]-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d roundtrip error at %d: %v vs %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := xrand.New(31)
	n := 128
	x := make([]complex128, n)
	var tEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		tEnergy += real(x[i]) * real(x[i])
	}
	if err := Forward(x); err != nil {
		t.Fatal(err)
	}
	var fEnergy float64
	for _, v := range x {
		fEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	fEnergy /= float64(n)
	if math.Abs(tEnergy-fEnergy) > 1e-8*tEnergy {
		t.Fatalf("Parseval violated: %v vs %v", tEnergy, fEnergy)
	}
}

func TestNonPow2Accepted(t *testing.T) {
	// The plan layer removed the power-of-two restriction: arbitrary
	// lengths transform (and invert) instead of erroring.
	for _, n := range []int{3, 12} {
		x := randComplex(n, uint64(n))
		y := append([]complex128(nil), x...)
		if err := Forward(y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := Inverse(y); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxDiff(y, x); d > 1e-9 {
			t.Fatalf("n=%d: round trip off by %g", n, d)
		}
	}
	if err := Forward(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestForward2DRoundtrip(t *testing.T) {
	rng := xrand.New(41)
	rows, cols := 8, 16
	x := make([]complex128, rows*cols)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := Forward2D(y, rows, cols); err != nil {
		t.Fatal(err)
	}
	if err := Inverse2D(y, rows, cols); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("2D roundtrip error at %d", i)
		}
	}
}

func TestForward2DSeparability(t *testing.T) {
	// DFT of a separable function is the product of 1D DFTs.
	rows, cols := 4, 8
	fr := []float64{1, -2, 3, 0.5}
	fc := []float64{2, 0, -1, 4, 0.25, 1, -3, 0}
	x := make([]complex128, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x[r*cols+c] = complex(fr[r]*fc[c], 0)
		}
	}
	if err := Forward2D(x, rows, cols); err != nil {
		t.Fatal(err)
	}
	fhr, fhc := widen(fr), widen(fc)
	if err := Forward(fhr); err != nil {
		t.Fatal(err)
	}
	if err := Forward(fhc); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := fhr[r] * fhc[c]
			if cmplx.Abs(x[r*cols+c]-want) > 1e-9 {
				t.Fatalf("separability fails at (%d,%d)", r, c)
			}
		}
	}
}

func TestForward3DRoundtrip(t *testing.T) {
	rng := xrand.New(51)
	nz, ny, nx := 4, 8, 16
	x := make([]complex128, nz*ny*nx)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := append([]complex128(nil), x...)
	if err := Forward3D(y, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	if err := Inverse3D(y, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if cmplx.Abs(y[i]-x[i]) > 1e-9 {
			t.Fatalf("3D roundtrip error at %d", i)
		}
	}
}

func TestForward3DDCBin(t *testing.T) {
	nz, ny, nx := 4, 4, 4
	x := make([]complex128, nz*ny*nx)
	for i := range x {
		x[i] = 3
	}
	if err := Forward3D(x, nz, ny, nx); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-complex(3*64, 0)) > 1e-9 {
		t.Fatalf("DC bin %v", x[0])
	}
	for i := 1; i < len(x); i++ {
		if cmplx.Abs(x[i]) > 1e-9 {
			t.Fatalf("non-DC energy at %d", i)
		}
	}
}

func TestForward3DBadShape(t *testing.T) {
	if err := Forward3D(make([]complex128, 9), 2, 2, 2); err == nil {
		t.Fatal("expected length error")
	}
}

func TestForward2DBadShape(t *testing.T) {
	if err := Forward2D(make([]complex128, 7), 2, 4); err == nil {
		t.Fatal("expected length error")
	}
}

// widen returns x as a complex line with zero imaginary parts.
func widen(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

// TestPowerSpectrum2D checks |FFT2(x)|²/n of a constant field: all
// power in the DC bin.
func TestPowerSpectrum2D(t *testing.T) {
	// constant field: all energy in DC bin
	rows, cols := 4, 4
	x := make([]float64, rows*cols)
	for i := range x {
		x[i] = 2
	}
	buf := widen(x)
	if err := Forward2D(buf, rows, cols); err != nil {
		t.Fatal(err)
	}
	ps := make([]float64, len(buf))
	for i, v := range buf {
		ps[i] = (real(v)*real(v) + imag(v)*imag(v)) / float64(len(buf))
	}
	if math.Abs(ps[0]-4*16) > 1e-9 {
		t.Fatalf("DC power %v", ps[0])
	}
	for i := 1; i < len(ps); i++ {
		if ps[i] > 1e-9 {
			t.Fatalf("non-DC power at %d: %v", i, ps[i])
		}
	}
}
