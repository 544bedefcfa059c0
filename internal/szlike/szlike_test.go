package szlike

import (
	"math"
	"testing"
	"testing/quick"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// gridCodec is the rank-2 codec seen through the grid type the
// 2D tests build their inputs with.
type gridCodec struct{}

func (gridCodec) Compress(g *grid.Grid, eb float64) ([]byte, error) {
	return New(2).CompressField(field.FromGrid(g), eb)
}

func (gridCodec) Decompress(data []byte) (*grid.Grid, error) {
	f, err := New(2).DecompressField(data)
	if err != nil {
		return nil, err
	}
	return f.AsGrid()
}

// haloedCopy returns the lattice of a field and a zero-haloed copy of its
// samples.
func haloedCopy(t *testing.T, f *field.Field) (*lattice, []float64) {
	t.Helper()
	l, err := newLattice(f.NDim(), f.Shape)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, l.size)
	l.rows(func(flat, h int) { copy(src[h:h+l.n[2]], f.Data[flat:flat+l.n[2]]) })
	return l, src
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
		t.Fatalf("shape changed: %dx%d -> %dx%d", g.Rows, g.Cols, dec.Rows, dec.Cols)
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
	if New(2).Name() != "sz-like" {
		t.Fatal("name changed")
	}
}

func TestRoundtripSmooth(t *testing.T) {
	g := grid.FromFunc(50, 70, func(r, c int) float64 {
		return math.Sin(float64(r)/9) + math.Cos(float64(c)/11)
	})
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		roundtrip(t, g, eb)
	}
}

func TestRoundtripNoise(t *testing.T) {
	rng := xrand.New(1)
	g := grid.FromFunc(33, 47, func(r, c int) float64 { return rng.NormFloat64() * 100 })
	roundtrip(t, g, 1e-4)
}

func TestRoundtripConstant(t *testing.T) {
	g := grid.FromFunc(20, 20, func(r, c int) float64 { return 3.75 })
	c := gridCodec{}
	data, err := c.Compress(g, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(g.SizeBytes()) / float64(len(data)); ratio < 20 {
		t.Fatalf("constant field ratio only %.1f", ratio)
	}
	roundtrip(t, g, 1e-6)
}

func TestOddSizes(t *testing.T) {
	rng := xrand.New(2)
	for _, sz := range [][2]int{{1, 1}, {1, 40}, {40, 1}, {3, 5}, {16, 16}, {17, 33}, {15, 16}} {
		g := grid.FromFunc(sz[0], sz[1], func(r, c int) float64 { return rng.NormFloat64() })
		roundtrip(t, g, 1e-3)
	}
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

func TestExtremeValues(t *testing.T) {
	g, _ := grid.FromData(2, 4, []float64{1e300, -1e300, 1e-300, 0, 5, -5, 1e18, -1e-18})
	roundtrip(t, g, 1e-6)
}

func TestSmoothBeatsNoise(t *testing.T) {
	c := gridCodec{}
	smooth, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	noise := grid.FromFunc(64, 64, func(r, c int) float64 { return rng.NormFloat64() })
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
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 4})
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
		t.Fatalf("sizes not decreasing with bound: %v", sizes)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	c := gridCodec{}
	if _, err := c.Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage must error")
	}
	data, err := c.Compress(grid.FromFunc(8, 8, func(r, cc int) float64 { return float64(r + cc) }), 1e-3)
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
		eb := math.Pow(10, -1-float64(ebExp%6)) // 1e-1 .. 1e-6
		rng := xrand.New(seed)
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		var g *grid.Grid
		if rough {
			g = grid.FromFunc(rows, cols, func(r, cc int) float64 { return rng.NormFloat64() * 10 })
		} else {
			fr := 1 + rng.Float64()*10
			g = grid.FromFunc(rows, cols, func(r, cc int) float64 {
				return math.Sin(float64(r)/fr) * math.Cos(float64(cc)/fr)
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

func TestRegressionCoeffsFitPlane(t *testing.T) {
	g := grid.FromFunc(16, 16, func(r, c int) float64 {
		return 2 + 0.5*float64(r) - 0.25*float64(c)
	})
	l, src := haloedCopy(t, field.FromGrid(g))
	b := fit(l, src, &block{e: [3]int{1, 16, 16}})
	if math.Abs(b[0]-2) > 1e-5 || math.Abs(b[2]-0.5) > 1e-6 || math.Abs(b[3]+0.25) > 1e-6 {
		t.Fatalf("plane fit %v", b)
	}
}

func TestLorenzoPredictExactOnPlane(t *testing.T) {
	// Lorenzo reproduces any plane exactly away from borders
	g := grid.FromFunc(8, 8, func(r, c int) float64 {
		return 1 + 3*float64(r) + 7*float64(c)
	})
	l, src := haloedCopy(t, field.FromGrid(g))
	for r := 1; r < 8; r++ {
		for c := 1; c < 8; c++ {
			if p := lorenzo2(src, l.at(0, r, c), &l.off); math.Abs(p-g.At(r, c)) > 1e-12 {
				t.Fatalf("lorenzo at (%d,%d): %v want %v", r, c, p, g.At(r, c))
			}
		}
	}
}

// TestHaloedClearsOnlyTheHalo pins the reuse contract of the pooled
// buffers: every sample with a −1 coordinate reads 0 whatever the
// buffer held before, and the interior is left alone.
func TestHaloedClearsOnlyTheHalo(t *testing.T) {
	for _, shape := range [][]int{{5, 7}, {1, 9}, {3, 4, 6}, {1, 1, 2}} {
		l, err := newLattice(len(shape), shape)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, l.size)
		for i := range buf {
			buf[i] = math.NaN()
		}
		buf = haloed(l, buf)
		interior := 1
		for _, n := range shape {
			interior *= n
		}
		zeros := 0
		for _, v := range buf {
			if v == 0 {
				zeros++
			}
		}
		if zeros != l.size-interior {
			t.Fatalf("shape %v: %d zeros, want the %d halo samples", shape, zeros, l.size-interior)
		}
	}
}
