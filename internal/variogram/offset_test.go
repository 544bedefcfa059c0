package variogram

import (
	"context"
	"fmt"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// offsetFields are correlated Gaussian fields, one per rank: a 128²
// grid of range 8 and a 28×24×20 volume of range 6.
func offsetFields(t *testing.T) []*field.Field {
	t.Helper()
	g, err := gaussian.Generate(gaussian.Params{Rows: 128, Cols: 128, Range: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 28, Ny: 24, Nx: 20, Range: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return []*field.Field{field.FromGrid(g), field.FromVolume(v)}
}

// TestFFTGlobalOffsetInvariance is the metamorphic offset check of the
// FFT global variogram: the semi-variogram is shift-invariant, so
// adding b to every sample must leave the pair counts equal to the
// exact scan's and Gamma and the fitted range equal to the unshifted
// field's, up to the representation error of the shifted samples. The
// float64 lane is shifted by up to 1e8·σ; the float32 lane by 1e3·σ,
// beyond which float32 cannot hold the fluctuations at all. The
// tolerances (1e-9 on float64, the engine's equivalence bound; 1e-4 on
// float32) sit well above the measured worst cases (7e-11 and 2e-6) and
// far below the failure of an uncentred engine, whose float64 fitted
// range on the volume drops from 5.6 to 0.9 at +1e8·σ.
func TestFFTGlobalOffsetInvariance(t *testing.T) {
	lanes := []struct {
		name    string
		offsets []float64 // in units of the field's σ
		tol     float64   // relative, on Gamma and on the fitted range
		compute func(f *field.Field, b float64) (*Empirical, error)
	}{
		{"f64", []float64{0, 1e3, 1e6, 1e8}, 1e-9, func(f *field.Field, b float64) (*Empirical, error) {
			s := f.Clone()
			for i := range s.Data {
				s.Data[i] += b
			}
			return ComputeField(s, Options{FFT: true})
		}},
		{"f32", []float64{0, 1e3}, 1e-4, func(f *field.Field, b float64) (*Empirical, error) {
			s := field.New32(f.Shape...)
			for i, v := range f.Data {
				s.Data[i] = float32(v + b)
			}
			return computeData(context.Background(), s.Data, s.Shape, Options{FFT: true})
		}},
	}
	for _, f := range offsetFields(t) {
		sigma := math.Sqrt(f.Summary().Variance)
		ex, err := ComputeField(f, Options{Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, lane := range lanes {
			var base *Empirical
			var baseRange float64
			for _, k := range lane.offsets {
				label := fmt.Sprintf("%s shape %v offset %gσ", lane.name, f.Shape, k)
				got, err := lane.compute(f, k*sigma)
				if err != nil {
					t.Fatal(err)
				}
				m, err := Fit(got)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.N) != len(ex.N) {
					t.Fatalf("%s: %d bins vs exact %d", label, len(got.N), len(ex.N))
				}
				for i := range ex.N {
					if got.N[i] != ex.N[i] {
						t.Fatalf("%s bin h=%v: count %d vs exact %d", label, ex.H[i], got.N[i], ex.N[i])
					}
				}
				if base == nil {
					base, baseRange = got, m.Range
					continue
				}
				for i := range base.Gamma {
					if rel := math.Abs(got.Gamma[i]-base.Gamma[i]) / base.Gamma[i]; rel > lane.tol {
						t.Errorf("%s bin h=%v: gamma %v vs unshifted %v (rel %.3g > %g)",
							label, base.H[i], got.Gamma[i], base.Gamma[i], rel, lane.tol)
					}
				}
				if rel := math.Abs(m.Range-baseRange) / baseRange; rel > lane.tol {
					t.Errorf("%s: fitted range %v vs unshifted %v (rel %.3g > %g)", label, m.Range, baseRange, rel, lane.tol)
				}
			}
		}
	}
}
