package main

// Seeded input generators. Every input is a pure function of the run
// seed; ranges come from the paper's range set (core.PaperRanges) and
// are fixed per workload, so the seed changes realizations, not cost
// classes.

import (
	"fmt"
	"runtime"

	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/hydro"
)

// paperRange returns r after checking it is in the paper's range set.
func paperRange(r float64) float64 {
	for _, p := range core.PaperRanges {
		if p == r {
			return r
		}
	}
	panic(fmt.Sprintf("range %v is not in core.PaperRanges", r))
}

// mix derives the generator seed of input k from the run seed.
func mix(seed uint64, k int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x
}

// The generators' circulant embeddings are several times the field
// (a 40^3 volume embeds in 128^3 complex values, 32 MiB). Each
// generator call is followed by a collection, so whether two of those
// transients overlap in the resident set does not depend on when the
// collector happens to run: peak_rss_mb would otherwise jump by their
// size from run to run.

func gauss2D(seed uint64, k, n int, r float64) (*field.Field, error) {
	defer runtime.GC()
	g, err := gaussian.Generate(gaussian.Params{Rows: n, Cols: n, Range: paperRange(r), Seed: mix(seed, k)})
	if err != nil {
		return nil, err
	}
	return field.FromGrid(g), nil
}

func gauss3D(seed uint64, k int, shape [3]int, r float64) (*field.Field, error) {
	defer runtime.GC()
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: shape[0], Ny: shape[1], Nx: shape[2], Range: paperRange(r), Seed: mix(seed, k)})
	if err != nil {
		return nil, err
	}
	return field.FromVolume(v), nil
}

// hydroEdge and hydroEnd size the Kelvin-Helmholtz run behind the
// hydro input: a full 512x512 run costs minutes, so one 128x128 slice
// is simulated and tiled periodically to the analysis size.
const (
	hydroEdge = 128
	hydroEnd  = 0.3
)

// hydroTiled returns an n x n velocityx field: one seeded 128x128
// turbulence slice repeated across the grid.
func hydroTiled(seed uint64, k, n int) (*field.Field, error) {
	set, err := hydro.GenerateSlices(hydroEdge, 1, hydroEnd, mix(seed, k))
	if err != nil {
		return nil, err
	}
	s := set.Slices[0]
	f := field.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f.Data[i*n+j] = s.At(i%s.Rows, j%s.Cols)
		}
	}
	return f, nil
}

// crop copies the n x n block of src (square, rank 2) at (r, c).
func crop(src *field.Field, r, c, n int) *field.Field {
	w := src.Shape[1]
	f := field.New(n, n)
	for i := 0; i < n; i++ {
		copy(f.Data[i*n:(i+1)*n], src.Data[(r+i)*w+c:(r+i)*w+c+n])
	}
	return f
}
