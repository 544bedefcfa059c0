package core

import (
	"errors"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
)

// TestAnalyzeFieldNonFinite checks that one NaN or +Inf in a 96² field
// makes the default analysis fail with ErrNonFinite, on both lanes,
// instead of returning plausible-looking statistics.
func TestAnalyzeFieldNonFinite(t *testing.T) {
	g, err := gaussian.Generate(gaussian.Params{Rows: 96, Cols: 96, Range: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		f := field.FromGrid(g.Clone())
		f.Data[50*96+17] = bad
		if s, err := AnalyzeField(f, AnalysisOptions{}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("value %v: got %v, err %v; want ErrNonFinite", bad, s, err)
		}
		if s, err := AnalyzeField32(f.Narrow(), AnalysisOptions{}); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("float32 lane, value %v: got %v, err %v; want ErrNonFinite", bad, s, err)
		}
	}
}
