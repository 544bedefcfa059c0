package zfplike

import (
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/gaussian"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// volumeCodec is the rank-3 codec seen through the volume type the 3D
// tests build their inputs with.
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
		t.Fatalf("shape %dx%dx%d want %dx%dx%d", dec.Nz, dec.Ny, dec.Nx, v.Nz, v.Ny, v.Nx)
	}
	for i := range v.Data {
		if d := math.Abs(v.Data[i] - dec.Data[i]); d > eb {
			t.Fatalf("element %d: |err| = %g > bound %g", i, d, eb)
		}
	}
	return dec
}

func TestName3D(t *testing.T) {
	if New(3).Name() != "zfp-like-3d" {
		t.Fatal("unexpected name")
	}
}

func TestRoundtrip3DSmooth(t *testing.T) {
	v := grid.NewVolume(12, 10, 14)
	for z := 0; z < v.Nz; z++ {
		for y := 0; y < v.Ny; y++ {
			for x := 0; x < v.Nx; x++ {
				v.Set(z, y, x, math.Sin(0.4*float64(z))+math.Cos(0.3*float64(y))*float64(x)*0.1)
			}
		}
	}
	for _, eb := range []float64{1e-2, 1e-4, 1e-8} {
		roundtrip3D(t, v, eb)
	}
}

func TestRoundtrip3DNoise(t *testing.T) {
	rng := xrand.New(4)
	v := grid.NewVolume(9, 11, 7)
	for i := range v.Data {
		v.Data[i] = rng.NormFloat64()
	}
	for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
		roundtrip3D(t, v, eb)
	}
}

func TestRoundtrip3DGaussianField(t *testing.T) {
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 16, Ny: 16, Nx: 16, Range: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	roundtrip3D(t, v, 1e-3)
}

func TestRoundtrip3DNonFinite(t *testing.T) {
	v := grid.NewVolume(5, 5, 5)
	v.Set(1, 2, 3, math.NaN())
	v.Set(0, 0, 0, math.Inf(1))
	c := volumeCodec{}
	data, err := c.Compress(v, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decompress(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dec.At(1, 2, 3)) || !math.IsInf(dec.At(0, 0, 0), 1) {
		t.Fatal("non-finite values not preserved raw")
	}
}

func TestSmoother3DCompressesBetter(t *testing.T) {
	smooth, err := gaussian.Generate3D(gaussian.Params3D{Nz: 16, Ny: 16, Nx: 16, Range: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(5)
	rough := grid.NewVolume(16, 16, 16)
	for i := range rough.Data {
		rough.Data[i] = rng.NormFloat64()
	}
	c := volumeCodec{}
	ds, err := c.Compress(smooth, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := c.Compress(rough, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) >= len(dr) {
		t.Fatalf("smooth volume (%d bytes) should beat white noise (%d bytes)", len(ds), len(dr))
	}
}

func TestDecompress3DCorrupt(t *testing.T) {
	c := volumeCodec{}
	if _, err := c.Decompress([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected corrupt-stream error")
	}
	v := grid.NewVolume(4, 4, 4)
	data, err := c.Compress(v, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if _, err := c.Decompress(data); err == nil {
		t.Fatal("expected error on flipped tail byte")
	}
}

func TestErrors3D(t *testing.T) {
	c := volumeCodec{}
	if _, err := c.Compress(grid.NewVolume(4, 4, 4), 0); err == nil {
		t.Fatal("expected non-positive bound error")
	}
	if _, err := c.Compress(grid.NewVolume(0, 4, 4), 1e-3); err == nil {
		t.Fatal("expected empty volume error")
	}
}

func TestInverseBlock3DExact(t *testing.T) {
	rng := xrand.New(6)
	var q, orig [64]int64
	for i := range q {
		q[i] = int64(rng.Intn(2_000_001) - 1_000_000)
		orig[i] = q[i]
	}
	forwardBlock(q[:])
	inverseBlock(q[:])
	if q != orig {
		t.Fatal("3D transform is not exactly invertible")
	}
}

func BenchmarkZFPLike3DCompress(b *testing.B) {
	v, err := gaussian.Generate3D(gaussian.Params3D{Nz: 32, Ny: 32, Nx: 32, Range: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (volumeCodec{}).Compress(v, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
