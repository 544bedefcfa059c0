package zfplike

import (
	"math"
	"testing"
	"testing/quick"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// gridCodec is the rank-2 codec seen through the grid type the 2D
// tests build their inputs with.
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
	if New(2).Name() != "zfp-like" {
		t.Fatal("name changed")
	}
}

func TestTransformInvertible(t *testing.T) {
	f := func(vals [16]int64) bool {
		// constrain to the fixed-point dynamic range the codec uses
		var q [16]int64
		for i, v := range vals {
			q[i] = v % (1 << 50)
		}
		orig := q
		forwardBlock(q[:])
		inverseBlock(q[:])
		return q == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestLift4Invertible(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		p := []int64{a % (1 << 50), b % (1 << 50), c % (1 << 50), d % (1 << 50)}
		orig := append([]int64(nil), p...)
		fwd4(p, 1)
		inv4(p, 1)
		for i := range p {
			if p[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryRoundtrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1000, -1000, 1 << 52, -(1 << 52)} {
		if got := fromNegabinary(toNegabinary(v)); got != v {
			t.Fatalf("negabinary roundtrip %d -> %d", v, got)
		}
	}
	f := func(v int64) bool { return fromNegabinary(toNegabinary(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryTruncationBounded(t *testing.T) {
	// zeroing the low k digits must perturb the value by < 2^k
	f := func(v int64, kRaw uint8) bool {
		v %= 1 << 40
		k := uint(kRaw % 30)
		u := toNegabinary(v)
		trunc := u &^ ((1 << k) - 1)
		got := fromNegabinary(trunc)
		return math.Abs(float64(got-v)) < float64(uint64(1)<<k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripSmooth(t *testing.T) {
	g := grid.FromFunc(48, 64, func(r, c int) float64 {
		return math.Sin(float64(r)/7) * math.Cos(float64(c)/9)
	})
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		roundtrip(t, g, eb)
	}
}

func TestRoundtripNoise(t *testing.T) {
	rng := xrand.New(5)
	g := grid.FromFunc(31, 29, func(r, c int) float64 { return rng.NormFloat64() * 50 })
	roundtrip(t, g, 1e-4)
}

func TestRoundtripConstantZero(t *testing.T) {
	roundtrip(t, grid.New(16, 16), 1e-6)
}

func TestOddSizes(t *testing.T) {
	rng := xrand.New(6)
	for _, sz := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {3, 5}, {4, 4}, {5, 4}, {7, 13}} {
		g := grid.FromFunc(sz[0], sz[1], func(r, c int) float64 { return rng.NormFloat64() })
		roundtrip(t, g, 1e-3)
	}
}

func TestTinyToleranceFallsBackToRaw(t *testing.T) {
	// tolerance finer than fixed-point precision: raw mode must kick in
	// and reproduce exactly
	g := grid.FromFunc(8, 8, func(r, c int) float64 { return 1e15 + float64(r*8+c) })
	dec := roundtrip(t, g, 1e-12)
	if d, _ := g.MaxAbsDiff(dec); d != 0 {
		t.Fatalf("raw mode not exact: %v", d)
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
	if _, err := c.Compress(grid.New(4, 4), -1); err == nil {
		t.Fatal("negative eb must error")
	}
}

func TestSmoothBeatsNoise(t *testing.T) {
	c := gridCodec{}
	smooth, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
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
	f, err := gaussian.Generate(gaussian.Params{Rows: 64, Cols: 64, Range: 8, Seed: 8})
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
	if _, err := c.Decompress([]byte{9, 9, 9}); err == nil {
		t.Fatal("garbage must error")
	}
	data, err := c.Compress(grid.FromFunc(8, 8, func(r, cc int) float64 { return float64(r - cc) }), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(data[:len(data)/3]); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestQuickBoundProperty(t *testing.T) {
	c := gridCodec{}
	f := func(seed uint64, ebExp uint8, rough bool) bool {
		eb := math.Pow(10, -1-float64(ebExp%6))
		rng := xrand.New(seed)
		rows := 1 + rng.Intn(30)
		cols := 1 + rng.Intn(30)
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

func TestBlockExponent(t *testing.T) {
	var vals [16]float64
	if _, zero := blockExponent(vals[:]); !zero {
		t.Fatal("zero block not detected")
	}
	vals[3] = 0.75 // frexp: 0.75 = 0.75·2^0
	if e, zero := blockExponent(vals[:]); zero || e != 0 {
		t.Fatalf("exponent %d want 0", e)
	}
	vals[5] = -3 // 0.75·2^2
	if e, _ := blockExponent(vals[:]); e != 2 {
		t.Fatalf("exponent %d want 2", e)
	}
}
