package linalg_test

import (
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/linalg"
	"lossycorr/internal/svdstat"
)

// oracleLevel is one window's truncation level from the Jacobi oracle:
// the centred Gram of the window's mode-1 unfolding (the smaller of
// AᵀA and AAᵀ), its eigenvalues by Jacobi, and the same threshold walk
// the statistic uses.
func oracleLevel(w *field.Field, frac float64) int {
	rows := w.Shape[0]
	cols := w.Len() / rows
	mean := w.Summary().Mean
	c := make([]float64, len(w.Data))
	for i, v := range w.Data {
		c[i] = v - mean
	}
	k, gramT := cols, rows < cols
	if gramT {
		k = rows
	}
	g := linalg.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j <= i; j++ {
			var s float64
			if gramT {
				for t := 0; t < cols; t++ {
					s += c[i*cols+t] * c[j*cols+t]
				}
			} else {
				for t := 0; t < rows; t++ {
					s += c[t*cols+i] * c[t*cols+j]
				}
			}
			g.Set(i, j, s)
			g.Set(j, i, s)
		}
	}
	eig := linalg.JacobiEigen(g)
	var total float64
	for _, e := range eig {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for i, e := range eig {
		if e > 0 {
			acc += e
		}
		if acc >= frac*total {
			return i + 1
		}
	}
	return len(eig)
}

// TestLevelIdentityWithJacobi requires the truncation levels of the
// tridiagonal QL solve, on both level paths, to equal the Jacobi
// oracle's in every window of seeded 256² fields (ranges 8 and 24) and
// a 40³ volume at H ∈ {8, 16, 32}. Levels are integers, so the faster
// solver must not move a single one.
func TestLevelIdentityWithJacobi(t *testing.T) {
	var fields []*field.Field
	for i, rng := range []float64{8, 24} {
		g, err := gaussian.Generate(gaussian.Params{Rows: 256, Cols: 256, Range: rng, Seed: uint64(61 + i)})
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, field.FromGrid(g))
	}
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 40, Ny: 40, Nx: 40, Range: 6, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	fields = append(fields, field.FromVolume(v))
	var windows int
	for fi, f := range fields {
		for _, h := range []int{8, 16, 32} {
			var want []float64
			for _, origin := range f.TileOrigins(h) {
				w := f.Window(origin, h)
				if w.MinDim() < 2 {
					continue
				}
				want = append(want, float64(oracleLevel(w, svdstat.DefaultVarianceFraction)))
			}
			for _, gram := range []svdstat.GramMode{svdstat.GramDefault, svdstat.GramOff} {
				got, err := svdstat.LocalLevelsField(f, h, svdstat.Options{Gram: gram})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("field %d H=%d gram=%v: %d levels, oracle %d", fi, h, gram, len(got), len(want))
				}
				var diff int
				for i := range got {
					if got[i] != want[i] {
						diff++
					}
				}
				if diff != 0 {
					t.Errorf("field %d H=%d gram=%v: %d of %d levels differ from the Jacobi oracle", fi, h, gram, diff, len(got))
				}
				windows += len(got)
			}
		}
	}
	t.Logf("%d window levels compared against the Jacobi oracle", windows)
}
