package svdstat

import (
	"errors"
	"math"
	"testing"

	"lossycorr/internal/gaussian"
	"lossycorr/internal/grid"
	"lossycorr/internal/linalg"
)

// invarianceFields are the metamorphic suite's inputs: 128² Gaussian
// fields of range 8, the shape the statistic's unit-dependence defects
// were first seen on.
func invarianceFields(t *testing.T) []*grid.Grid {
	t.Helper()
	var out []*grid.Grid
	for _, seed := range []uint64{4, 5} {
		g, err := gaussian.Generate(gaussian.Params{Rows: 128, Cols: 128, Range: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

func mapGrid(g *grid.Grid, fn func(float64) float64) *grid.Grid {
	out := g.Clone()
	for i, v := range out.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// TestLocalSVDOffsetInvariance adds b ∈ {1e3, 1e6, 1e9}·σ to the field:
// the truncation levels measure variance, so localSVDStd must keep the
// unshifted bits on both level paths. Forming the Gram before removing
// the mean lost the field's variation to cancellation at +1e9·σ.
func TestLocalSVDOffsetInvariance(t *testing.T) {
	for fi, g := range invarianceFields(t) {
		sigma := math.Sqrt(g.Summary().Variance)
		for _, gram := range []GramMode{GramDefault, GramOff} {
			want, err := LocalStdWith(g, 32, Options{Gram: gram})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []float64{1e3, 1e6, 1e9} {
				shifted := mapGrid(g, func(v float64) float64 { return v + b*sigma })
				got, err := LocalStdWith(shifted, 32, Options{Gram: gram})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("field %d gram=%v offset %g·σ: localSVDStd %v, unshifted %v", fi, gram, b, got, want)
				}
			}
		}
	}
}

// TestLocalSVDScaleInvariance scales the field by a ∈ [1e-12, 1e12]:
// localSVDStd must keep the a=1 bits on both level paths. An absolute
// eigensolver stop test returned the unrotated diagonal for small
// scales.
func TestLocalSVDScaleInvariance(t *testing.T) {
	for fi, g := range invarianceFields(t) {
		for _, gram := range []GramMode{GramDefault, GramOff} {
			want, err := LocalStdWith(g, 32, Options{Gram: gram})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []float64{1e-12, 1e-8, 1e-6, 1e6, 1e12} {
				scaled := mapGrid(g, func(v float64) float64 { return v * a })
				got, err := LocalStdWith(scaled, 32, Options{Gram: gram})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("field %d gram=%v scale %g: localSVDStd %v, a=1 %v", fi, gram, a, got, want)
				}
			}
		}
	}
}

// TestLocalSVDNonFinite puts one NaN or +Inf into a 96² field: the
// statistic must fail with linalg.ErrNotFinite on both paths instead
// of folding a plausible-looking number.
func TestLocalSVDNonFinite(t *testing.T) {
	g, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		h := g.Clone()
		h.Set(50, 17, bad)
		for _, gram := range []GramMode{GramDefault, GramOff} {
			v, err := LocalStdWith(h, 32, Options{Gram: gram})
			if !errors.Is(err, linalg.ErrNotFinite) {
				t.Fatalf("gram=%v value %v: got %v, err %v; want ErrNotFinite", gram, bad, v, err)
			}
		}
	}
}

// TestLevelGramAllocs pins the pooled per-window scratch: the parent
// Gram path allocated 5 times per window (Gram matrix and its header,
// line sums, eigenvalue slice, sort adaptor). A warm pool serves a
// window with none; the bound of 1 leaves room for the race detector,
// which drops a quarter of sync.Pool puts.
func TestLevelGramAllocs(t *testing.T) {
	for _, sh := range [][2]int{{32, 32}, {32, 1024}, {48, 16}} {
		g := gramRandomGrid(sh[0], sh[1], 7)
		if _, err := levelGram(g.Data, sh[0], sh[1], 0.99); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := levelGram(g.Data, sh[0], sh[1], 0.99); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%dx%d: levelGram allocates %v per window, want <= 1 (parent: 5)", sh[0], sh[1], allocs)
		}
	}
}
