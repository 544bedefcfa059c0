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

// volumeCodec is the rank-3 codec seen through the volume type the
// 3D tests build their inputs with.
type volumeCodec struct{}

func (volumeCodec) Compress(v *grid.Volume, eb float64) ([]byte, error) {
	return New(3).CompressField(field.FromVolume(v), eb)
}

func (volumeCodec) Decompress(data []byte) (*grid.Volume, error) {
	f, err := New(3).DecompressField(data)
	if err != nil {
		return nil, err
	}
	return f.AsVolume()
}

func volumeFromFunc(nz, ny, nx int, f func(z, y, x int) float64) *grid.Volume {
	v := grid.NewVolume(nz, ny, nx)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v.Set(z, y, x, f(z, y, x))
			}
		}
	}
	return v
}

func maxAbsDiff3D(a, b *grid.Volume) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

func roundtrip3D(t *testing.T, v *grid.Volume, eb float64) *grid.Volume {
	t.Helper()
	c := volumeCodec{}
	data, err := c.Compress(v, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Nz != v.Nz || dec.Ny != v.Ny || dec.Nx != v.Nx {
		t.Fatalf("shape changed")
	}
	if m := maxAbsDiff3D(v, dec); m > eb*(1+1e-12) {
		t.Fatalf("bound violated: %v > %v", m, eb)
	}
	return dec
}

func TestName3D(t *testing.T) {
	if New(3).Name() != "sz-like-3d" {
		t.Fatal("name changed")
	}
}

func TestRoundtrip3DSmooth(t *testing.T) {
	v := volumeFromFunc(12, 20, 16, func(z, y, x int) float64 {
		return math.Sin(float64(z)/3) + math.Cos(float64(y)/5) + float64(x)*0.1
	})
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		roundtrip3D(t, v, eb)
	}
}

func TestRoundtrip3DNoise(t *testing.T) {
	rng := xrand.New(4)
	v := volumeFromFunc(9, 11, 13, func(z, y, x int) float64 { return rng.NormFloat64() * 20 })
	roundtrip3D(t, v, 1e-4)
}

func TestRoundtrip3DGaussianField(t *testing.T) {
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 16, Ny: 16, Nx: 16, Range: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	roundtrip3D(t, v, 1e-3)
}

func TestOddSizes3D(t *testing.T) {
	rng := xrand.New(5)
	for _, sz := range [][3]int{{1, 1, 1}, {1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {3, 5, 7}, {9, 10, 11}} {
		v := volumeFromFunc(sz[0], sz[1], sz[2], func(z, y, x int) float64 { return rng.NormFloat64() })
		roundtrip3D(t, v, 1e-3)
	}
}

func TestLorenzo3DExactOnHyperplane(t *testing.T) {
	// 3D Lorenzo reproduces any affine field exactly away from borders
	v := volumeFromFunc(6, 6, 6, func(z, y, x int) float64 {
		return 1 + 2*float64(z) - 3*float64(y) + 0.5*float64(x)
	})
	l, src := haloedCopy(t, field.FromVolume(v))
	for z := 1; z < 6; z++ {
		for y := 1; y < 6; y++ {
			for x := 1; x < 6; x++ {
				if p := lorenzo3(src, l.at(z, y, x), &l.off); math.Abs(p-v.At(z, y, x)) > 1e-10 {
					t.Fatalf("lorenzo3D at (%d,%d,%d): %v want %v", z, y, x, p, v.At(z, y, x))
				}
			}
		}
	}
}

func TestHyperplaneCoeffs(t *testing.T) {
	v := volumeFromFunc(8, 8, 8, func(z, y, x int) float64 {
		return 4 - 0.5*float64(z) + 0.25*float64(y) + 2*float64(x)
	})
	l, src := haloedCopy(t, field.FromVolume(v))
	b := fit(l, src, &block{e: [3]int{8, 8, 8}})
	if math.Abs(b[0]-4) > 1e-5 || math.Abs(b[1]+0.5) > 1e-6 ||
		math.Abs(b[2]-0.25) > 1e-6 || math.Abs(b[3]-2) > 1e-6 {
		t.Fatalf("coeffs %v", b)
	}
}

func TestSmoother3DCompressesBetter(t *testing.T) {
	c := volumeCodec{}
	smooth, err := gaussian.Generate3D(gaussian.Params3D{Nz: 16, Ny: 16, Nx: 16, Range: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(7)
	noise := volumeFromFunc(16, 16, 16, func(z, y, x int) float64 { return rng.NormFloat64() })
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

func TestDecompress3DCorrupt(t *testing.T) {
	c := volumeCodec{}
	if _, err := c.Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage must error")
	}
	v := volumeFromFunc(4, 4, 4, func(z, y, x int) float64 { return float64(z + y + x) })
	data, err := c.Compress(v, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream must error")
	}
}

func TestErrors3D(t *testing.T) {
	c := volumeCodec{}
	if _, err := c.Compress(grid.NewVolume(0, 4, 4), 1e-3); err == nil {
		t.Fatal("empty volume must error")
	}
	if _, err := c.Compress(grid.NewVolume(4, 4, 4), 0); err == nil {
		t.Fatal("eb=0 must error")
	}
}

func TestQuickBoundProperty3D(t *testing.T) {
	c := volumeCodec{}
	f := func(seed uint64, ebExp uint8, rough bool) bool {
		eb := math.Pow(10, -1-float64(ebExp%5))
		rng := xrand.New(seed)
		nz := 1 + rng.Intn(10)
		ny := 1 + rng.Intn(10)
		nx := 1 + rng.Intn(10)
		var v *grid.Volume
		if rough {
			v = volumeFromFunc(nz, ny, nx, func(z, y, x int) float64 { return rng.NormFloat64() * 10 })
		} else {
			fr := 1 + rng.Float64()*5
			v = volumeFromFunc(nz, ny, nx, func(z, y, x int) float64 {
				return math.Sin(float64(z+y)/fr) + math.Cos(float64(x)/fr)
			})
		}
		data, err := c.Compress(v, eb)
		if err != nil {
			return false
		}
		dec, err := c.Decompress(data)
		if err != nil {
			return false
		}
		return maxAbsDiff3D(v, dec) <= eb*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
