package variogram

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

func randomField(shape []int, seed uint64) *field.Field {
	rng := xrand.New(seed)
	f := field.New(shape...)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

// TestFFTMatchesExactScan is the fast path's pinned equivalence: across
// ranks, odd (non-power-of-two) extents, lag cutoffs, and worker
// counts, the FFT engine must reproduce the direct scan's pair counts
// exactly and its Gamma values to 1e-9 relative.
func TestFFTMatchesExactScan(t *testing.T) {
	cases := []struct {
		shape  []int
		maxLag int
	}{
		{[]int{37, 53}, 0},
		{[]int{64, 64}, 0},
		{[]int{96, 40}, 13},
		{[]int{17, 19, 23}, 0},
		{[]int{24, 24, 24}, 7},
	}
	for ci, tc := range cases {
		f := randomField(tc.shape, uint64(100+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 3, 8} {
			ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(ff.H) != len(ex.H) {
				t.Fatalf("shape %v workers %d: %d bins vs exact %d", tc.shape, workers, len(ff.H), len(ex.H))
			}
			for i := range ex.H {
				if ff.N[i] != ex.N[i] {
					t.Fatalf("shape %v workers %d bin h=%v: count %d vs exact %d",
						tc.shape, workers, ex.H[i], ff.N[i], ex.N[i])
				}
				rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
				if rel > 1e-9 {
					t.Fatalf("shape %v workers %d bin h=%v: gamma %v vs exact %v (rel %g)",
						tc.shape, workers, ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
				}
			}
			// The FFT path itself is bit-identical at any worker count.
			if ref == nil {
				ref = ff
			} else {
				for i := range ref.Gamma {
					if ff.Gamma[i] != ref.Gamma[i] {
						t.Fatalf("shape %v workers %d: nondeterministic gamma at bin %d", tc.shape, workers, i)
					}
				}
			}
		}
	}
}

// TestFFTLagBeyondExtent covers offsets larger than an extent: the
// direct scan skips them (no valid base points) and the FFT mask
// autocorrelation must count zero pairs for them, leaving the binned
// results identical.
func TestFFTLagBeyondExtent(t *testing.T) {
	f := randomField([]int{8, 64}, 9)
	ex, err := ComputeField(f, Options{Exact: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := ComputeField(f, Options{FFT: true, MaxLag: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(ff.H) != len(ex.H) {
		t.Fatalf("%d bins vs exact %d", len(ff.H), len(ex.H))
	}
	for i := range ex.H {
		if ff.N[i] != ex.N[i] {
			t.Fatalf("bin h=%v: count %d vs exact %d", ex.H[i], ff.N[i], ex.N[i])
		}
	}
}

// TestFFTGlobalRangeField checks the option threads through the fitted
// model entry point and lands near the direct estimate.
func TestFFTGlobalRangeField(t *testing.T) {
	f := randomField([]int{48, 48}, 3)
	mEx, err := GlobalRangeField(f, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	mFF, err := GlobalRangeField(f, Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mFF.Range-mEx.Range) / mEx.Range; rel > 1e-6 {
		t.Fatalf("fitted range %v vs exact %v (rel %g)", mFF.Range, mEx.Range, rel)
	}
}

// TestFFTConstantField covers the roundoff clamp: a constant field has
// zero semi-variance in every bin, which the cancellation in
// c_wm(h)+c_wm(−h)−2·c_zz(h) must not turn negative.
func TestFFTConstantField(t *testing.T) {
	f := field.New(20, 20)
	for i := range f.Data {
		f.Data[i] = 4.5
	}
	ff, err := ComputeField(f, Options{FFT: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range ff.Gamma {
		if g < 0 || g > 1e-12 {
			t.Fatalf("bin h=%v: gamma %v, want 0", ff.H[i], g)
		}
	}
}

// equivalenceCases are the shapes/cutoffs shared by the engine
// equivalence tests below.
var equivalenceCases = []struct {
	shape  []int
	maxLag int
}{
	{[]int{37, 53}, 0},
	{[]int{64, 64}, 0},
	{[]int{96, 40}, 13},
	{[]int{17, 19, 23}, 0},
	{[]int{24, 24, 24}, 7},
}

func checkAgainstExact(t *testing.T, label string, f *field.Field, ex, ff *Empirical) {
	t.Helper()
	if len(ff.H) != len(ex.H) {
		t.Fatalf("%s shape %v: %d bins vs exact %d", label, f.Shape, len(ff.H), len(ex.H))
	}
	for i := range ex.H {
		if ff.N[i] != ex.N[i] {
			t.Fatalf("%s shape %v bin h=%v: count %d vs exact %d",
				label, f.Shape, ex.H[i], ff.N[i], ex.N[i])
		}
		rel := math.Abs(ff.Gamma[i]-ex.Gamma[i]) / math.Abs(ex.Gamma[i])
		if rel > 1e-9 {
			t.Fatalf("%s shape %v bin h=%v: gamma %v vs exact %v (rel %g)",
				label, f.Shape, ex.H[i], ff.Gamma[i], ex.Gamma[i], rel)
		}
	}
}

// TestFFTBluesteinPadding drives the full engine through exact
// (non-smooth, often odd) padded extents: with padLenFn forced to
// identity, pad = dim + MaxLag exactly, which for these shapes puts
// Bluestein (and odd-length real-transform) plans on every axis. The
// equivalence contract is unchanged: pair counts exact, Gamma <= 1e-9.
func TestFFTBluesteinPadding(t *testing.T) {
	orig := padLenFn
	padLenFn = func(n int) int { return n }
	defer func() { padLenFn = orig }()

	for ci, tc := range equivalenceCases {
		f := randomField(tc.shape, uint64(500+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		var ref *Empirical
		for _, workers := range []int{1, 4} {
			ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, "bluestein", f, ex, ff)
			if ref == nil {
				ref = ff
			} else {
				for i := range ref.Gamma {
					if ff.Gamma[i] != ref.Gamma[i] {
						t.Fatalf("shape %v workers %d: nondeterministic gamma at bin %d", tc.shape, workers, i)
					}
				}
			}
		}
	}
}

// TestFFTComplexRefMatches keeps the retained PR 3 all-complex engine
// honest as a second oracle: it must still agree with the direct scan,
// so the before/after memory and speed comparisons compare like with
// like.
func TestFFTComplexRefMatches(t *testing.T) {
	for ci, tc := range equivalenceCases {
		f := randomField(tc.shape, uint64(700+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		o := (&Options{MaxLag: tc.maxLag}).withShapeDefaults(f.Shape)
		ff, err := fftScanFieldComplexRef(f, o)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, "complexref", f, ex, ff)
	}
}

// poisonPools floods every pool bucket the engine will draw from with
// NaN-poisoned buffers, so any code path that assumes zeroed scratch
// turns into a hard test failure (NaN propagates into Gamma or the
// pair counts).
func poisonPools(maxElems int) {
	const perBucket = 6
	for n := 1; n <= maxElems; n *= 2 {
		cbufs := make([][]complex128, perBucket)
		rbufs := make([][]float64, perBucket)
		for i := 0; i < perBucket; i++ {
			c := fft.Acquire[complex128](n)
			for j := range c {
				c[j] = complex(math.NaN(), math.NaN())
			}
			cbufs[i] = c
			r := fft.Acquire[float64](n)
			for j := range r {
				r[j] = math.NaN()
			}
			rbufs[i] = r
		}
		for i := 0; i < perBucket; i++ {
			fft.Release(cbufs[i])
			fft.Release(rbufs[i])
		}
	}
}

// TestFFTPoisonedPools re-runs the 2D/3D equivalence suite with every
// pool bucket pre-filled with NaN-poisoned buffers: fft.Acquire returns
// unspecified contents, and the engine must
// overwrite every element it reads (padding fill, mask embed, spectrum
// stages) rather than assume zeroed scratch.
func TestFFTPoisonedPools(t *testing.T) {
	for ci, tc := range equivalenceCases {
		f := randomField(tc.shape, uint64(900+ci))
		ex, err := ComputeField(f, Options{Exact: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		poisonPools(1 << 18)
		ff, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, "poisoned", f, ex, ff)

		// The Bluestein/odd-length paths have their own scratch
		// handling; poison them too.
		orig := padLenFn
		padLenFn = func(n int) int { return n }
		poisonPools(1 << 18)
		fb, err := ComputeField(f, Options{FFT: true, MaxLag: tc.maxLag})
		padLenFn = orig
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstExact(t, "poisoned-bluestein", f, ex, fb)
	}
}

// TestFFTMemorySmoke pins the engine's memory claim: the real-input
// engine's peak transform-buffer bytes on a 512² field (default
// cutoff 256) must be at most 55% of the PR 3 complex-path engine's
// working set — three complex NextPow2(512+256)² buffers, ~50 MiB.
// (Measured: ~11 MiB ≈ 23%: one real plane, one half-spectrum, and
// the summed-area table.)
func TestFFTMemorySmoke(t *testing.T) {
	f := randomField([]int{512, 512}, 77)
	fft.ResetPeakBytes()
	base := fft.LiveBytes()
	if _, err := ComputeField(f, Options{FFT: true}); err != nil {
		t.Fatal(err)
	}
	peak := fft.PeakBytes() - base
	ref := complexRefPeakBytes(f.Shape, 256)
	t.Logf("peak %d bytes (%.1f MiB), complex-path ref %d bytes (%.1f MiB), ratio %.1f%%",
		peak, float64(peak)/(1<<20), ref, float64(ref)/(1<<20), 100*float64(peak)/float64(ref))
	if peak > ref*55/100 {
		t.Fatalf("peak transform-buffer bytes %d > 55%% of complex-path %d", peak, ref)
	}
}

// TestScanOffsetAllocs pins the zero-allocation contract of the direct
// scan's inner loop: with the per-bin scratch hoisted out, a scanOffset
// visit allocates nothing.
func TestScanOffsetAllocs(t *testing.T) {
	f := randomField([]int{32, 32}, 5)
	dims := f.Shape
	strides := f.Strides()
	sc := newScanScratch(2)
	off := []int32{3, -2}
	var sum float64
	var cnt int64
	allocs := testing.AllocsPerRun(200, func() {
		scanOffset(f.Data, dims, strides, off, sc, &sum, &cnt)
	})
	if allocs != 0 {
		t.Fatalf("scanOffset allocates %v per visit, want 0", allocs)
	}
}

// ---- benchmarks -------------------------------------------------------------

// benchScanSizes are the 2D edges the Exact/FFT benchmark pair sweeps.
// The paper-scale 1028² case joins only when LOSSYCORR_N >= 1028 — a
// single exact scan at that size takes minutes, which has no place in a
// CI smoke run.
func benchScanSizes() []int {
	sizes := []int{128, 512}
	if s := os.Getenv("LOSSYCORR_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1028 {
			sizes = append(sizes, 1028)
		}
	}
	return sizes
}

// BenchmarkVariogramExact measures the direct O(N·L²) global scan.
func BenchmarkVariogramExact(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := randomField([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeField(f, Options{Exact: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reportFFTPeak publishes the transform-buffer peak (MiB) of the last
// run plus the PR 3 complex-path working set for the same shape — the
// before/after pair the perf record tracks.
func reportFFTPeak(b *testing.B, shape []int, maxLag int) {
	b.Helper()
	b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
	b.ReportMetric(float64(complexRefPeakBytes(shape, maxLag))/(1<<20), "fftComplexRefMB")
}

// defaultCutoff mirrors withShapeDefaults: MaxLag 0 means min extent/2.
func defaultCutoff(shape []int) int {
	m := shape[0]
	for _, d := range shape {
		if d < m {
			m = d
		}
	}
	return m / 2
}

// BenchmarkVariogramFFT measures the (real-input, half-spectrum) FFT
// exact engine on the same fields; the ns/op ratio against
// BenchmarkVariogramExact is the speedup, and against
// BenchmarkVariogramFFTComplexRef the cost of the memory halving, that
// the perf harness tracks.
func BenchmarkVariogramFFT(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := randomField([]int{n, n}, 11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := ComputeField(f, Options{FFT: true}); err != nil {
					b.Fatal(err)
				}
			}
			reportFFTPeak(b, f.Shape, defaultCutoff(f.Shape))
		})
	}
}

// BenchmarkVariogramFFTComplexRef measures the retained PR 3
// all-complex engine — the "before" row of the memory/speed record.
func BenchmarkVariogramFFTComplexRef(b *testing.B) {
	for _, n := range benchScanSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := randomField([]int{n, n}, 11)
			o := (&Options{}).withShapeDefaults(f.Shape)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fft.ResetPeakBytes()
				if _, err := fftScanFieldComplexRef(f, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fft.PeakBytes())/(1<<20), "fftPeakMB")
		})
	}
}

// BenchmarkVariogramExact3D / BenchmarkVariogramFFT3D are the rank-3
// pair on a 64³ volume.
func BenchmarkVariogramExact3D(b *testing.B) {
	f := randomField([]int{64, 64, 64}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeField(f, Options{Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVariogramFFT3D(b *testing.B) {
	f := randomField([]int{64, 64, 64}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fft.ResetPeakBytes()
		if _, err := ComputeField(f, Options{FFT: true}); err != nil {
			b.Fatal(err)
		}
	}
	reportFFTPeak(b, f.Shape, defaultCutoff(f.Shape))
}
