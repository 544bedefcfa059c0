package mgardlike

import (
	"math"
	"testing"
	"testing/quick"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// gridCodec is the codec seen through the grid type the tests build
// their inputs with.
type gridCodec struct{}

func (gridCodec) Compress(g *grid.Grid, eb float64) ([]byte, error) {
	return Compressor{}.CompressField(field.FromGrid(g), eb)
}

func (gridCodec) Decompress(data []byte) (*grid.Grid, error) {
	f, err := Compressor{}.DecompressField(data)
	if err != nil {
		return nil, err
	}
	return f.AsGrid()
}

func roundtrip(t *testing.T, g *grid.Grid, eb float64) *grid.Grid {
	t.Helper()
	c := gridCodec{}
	data, err := c.Compress(g, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows != g.Rows || dec.Cols != g.Cols {
		t.Fatalf("shape changed")
	}
	maxErr, err := g.MaxAbsDiff(dec)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > eb*(1+1e-12) {
		t.Fatalf("bound violated: maxErr %v > eb %v", maxErr, eb)
	}
	return dec
}

func TestName(t *testing.T) {
	if (Compressor{}).Name() != "mgard-like" {
		t.Fatal("name changed")
	}
}

func TestNumLevels(t *testing.T) {
	cases := []struct{ rows, cols, want int }{
		{1, 1, 0},
		{2, 2, 0},
		{3, 3, 1},
		{4, 4, 1},
		{5, 5, 2},
		{64, 64, 5},
		{64, 128, 6},
	}
	for _, c := range cases {
		if got := numLevels(c.rows, c.cols); got != c.want {
			t.Fatalf("numLevels(%d,%d)=%d want %d", c.rows, c.cols, got, c.want)
		}
	}
}

func TestForEachLevelNodePartition(t *testing.T) {
	// across all levels plus the coarsest lattice, every node must be
	// visited exactly once
	rows, cols := 13, 21
	L := numLevels(rows, cols)
	seen := grid.New(rows, cols)
	sTop := 1 << uint(L)
	for r := 0; r < rows; r += sTop {
		for c := 0; c < cols; c += sTop {
			seen.Set(r, c, seen.At(r, c)+1)
		}
	}
	for l := L - 1; l >= 0; l-- {
		s := 1 << uint(l)
		forEachLevelNode(rows, cols, s, func(r, c int) {
			seen.Set(r, c, seen.At(r, c)+1)
		})
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if seen.At(r, c) != 1 {
				t.Fatalf("node (%d,%d) visited %v times", r, c, seen.At(r, c))
			}
		}
	}
}

func TestInterpolateExactOnBilinear(t *testing.T) {
	// a bilinear field is reproduced exactly by the interior stencil
	g := grid.FromFunc(17, 17, func(r, c int) float64 {
		return 2 + 0.5*float64(r) + 0.25*float64(c)
	})
	for _, s := range []int{1, 2, 4} {
		forEachLevelNode(17, 17, s, func(r, c int) {
			got := interpolate(g.Data, g.Rows, g.Cols, r, c, s)
			if math.Abs(got-g.At(r, c)) > 1e-12 {
				t.Fatalf("stride %d node (%d,%d): %v want %v", s, r, c, got, g.At(r, c))
			}
		})
	}
}

func TestRoundtripSmooth(t *testing.T) {
	g := grid.FromFunc(40, 56, func(r, c int) float64 {
		return math.Sin(float64(r)/8) * math.Cos(float64(c)/6)
	})
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		roundtrip(t, g, eb)
	}
}

func TestRoundtripNoise(t *testing.T) {
	rng := xrand.New(9)
	g := grid.FromFunc(27, 35, func(r, c int) float64 { return rng.NormFloat64() * 20 })
	roundtrip(t, g, 1e-4)
}

func TestOddSizes(t *testing.T) {
	rng := xrand.New(10)
	for _, sz := range [][2]int{{1, 1}, {1, 17}, {17, 1}, {2, 2}, {3, 5}, {16, 16}, {17, 33}} {
		g := grid.FromFunc(sz[0], sz[1], func(r, c int) float64 { return rng.NormFloat64() })
		roundtrip(t, g, 1e-3)
	}
}

func TestExtremeValues(t *testing.T) {
	g, _ := grid.FromData(2, 4, []float64{1e300, -1e300, 1e-300, 0, 5, -5, 1e18, -1e-18})
	roundtrip(t, g, 1e-6)
}

func TestEmptyAndBadBound(t *testing.T) {
	c := gridCodec{}
	if _, err := c.Compress(grid.New(0, 0), 1e-3); err == nil {
		t.Fatal("empty field must error")
	}
	if _, err := c.Compress(grid.New(4, 4), 0); err == nil {
		t.Fatal("eb=0 must error")
	}
}

func TestSmoothBeatsNoise(t *testing.T) {
	c := gridCodec{}
	smooth, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 16, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(12)
	noise := grid.FromFunc(64, 64, func(r, cc int) float64 { return rng.NormFloat64() })
	ds, err := c.Compress(smooth, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := c.Compress(noise, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) >= len(dn) {
		t.Fatalf("smooth (%d B) not smaller than noise (%d B)", len(ds), len(dn))
	}
}

func TestRatioIncreasesWithBound(t *testing.T) {
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c := gridCodec{}
	var sizes []int
	for _, eb := range []float64{1e-6, 1e-4, 1e-2} {
		d, err := c.Compress(f, eb)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(d))
	}
	if !(sizes[0] > sizes[1] && sizes[1] > sizes[2]) {
		t.Fatalf("sizes not decreasing: %v", sizes)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	c := gridCodec{}
	if _, err := c.Decompress([]byte{3, 1, 4}); err == nil {
		t.Fatal("garbage must error")
	}
	data, err := c.Compress(grid.FromFunc(9, 9, func(r, cc int) float64 { return float64(r * cc) }), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestQuickBoundProperty(t *testing.T) {
	c := gridCodec{}
	f := func(seed uint64, ebExp uint8, rough bool) bool {
		eb := math.Pow(10, -1-float64(ebExp%6))
		rng := xrand.New(seed)
		rows := 1 + rng.Intn(34)
		cols := 1 + rng.Intn(34)
		var g *grid.Grid
		if rough {
			g = grid.FromFunc(rows, cols, func(r, cc int) float64 { return rng.NormFloat64() * 10 })
		} else {
			fr := 1 + rng.Float64()*10
			g = grid.FromFunc(rows, cols, func(r, cc int) float64 {
				return math.Sin(float64(r)/fr) + math.Cos(float64(cc)/fr)
			})
		}
		data, err := c.Compress(g, eb)
		if err != nil {
			return false
		}
		dec, err := c.Decompress(data)
		if err != nil {
			return false
		}
		maxErr, err := g.MaxAbsDiff(dec)
		return err == nil && maxErr <= eb*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
