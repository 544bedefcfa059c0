package szlike

import (
	"math"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

func randomField32(rows, cols int, seed uint64) *field.Field32 {
	rng := xrand.New(seed)
	f := field.New32(rows, cols)
	for i := range f.Data {
		f.Data[i] = float32(rng.NormFloat64())
	}
	return f
}

func roundtrip32(t *testing.T, cc Compressor, f *field.Field32, eb float64) *field.Field32 {
	t.Helper()
	data, err := cc.CompressField32(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := cc.DecompressField32(data)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.SameShape(f) {
		t.Fatalf("shape changed: %v -> %v", f.Shape, dec.Shape)
	}
	maxErr, err := f.MaxAbsDiff(dec)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > eb {
		t.Fatalf("float32 lane bound violated: maxErr %g > eb %g", maxErr, eb)
	}
	return dec
}

// TestLane32RoundTrip pins the native float32 lane of both ranks: the
// bound holds strictly on float32 values — no widened slack term,
// because the post-narrow guard escapes any sample whose narrow
// rounding would exceed it.
func TestLane32RoundTrip(t *testing.T) {
	for _, eb := range []float64{1e-1, 1e-3, 1e-5} {
		roundtrip32(t, New(2), randomField32(61, 77, 7), eb)
		f3 := field.New32(13, 17, 11)
		copy(f3.Data, randomField32(13, 17*11, 8).Data)
		roundtrip32(t, New(3), f3, eb)
	}
}

// TestLane32NarrowGuard drives the post-narrow escape: values around
// 1e7 with a bound of 1e-4 sit below half a float32 ulp (~0.6 at that
// magnitude), so nearly every sample must escape to exact storage —
// and the reconstruction is then bitwise exact.
func TestLane32NarrowGuard(t *testing.T) {
	rng := xrand.New(3)
	f := field.New32(24, 24)
	for i := range f.Data {
		f.Data[i] = float32(1e7 + rng.NormFloat64())
	}
	dec := roundtrip32(t, New(2), f, 1e-4)
	for i := range f.Data {
		if f.Data[i] != dec.Data[i] {
			t.Fatalf("sample %d: %v != %v (expected exact escape)", i, f.Data[i], dec.Data[i])
		}
	}
}

// TestLane32NonFinite pins NaN/Inf handling: non-finite residuals
// escape, so special values survive the round trip.
func TestLane32NonFinite(t *testing.T) {
	f := randomField32(20, 20, 9)
	f.Data[5] = float32(math.NaN())
	f.Data[37] = float32(math.Inf(1))
	data, err := New(2).CompressField32(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(2).DecompressField32(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(dec.Data[5])) || !math.IsInf(float64(dec.Data[37]), 1) {
		t.Fatalf("special values lost: %v %v", dec.Data[5], dec.Data[37])
	}
}

// TestLane32ThroughRegistry pins the lane as the measurement harness
// sees it: the codec is a compress.Lane32Compressor and RunField32
// runs it with BoundOK.
func TestLane32ThroughRegistry(t *testing.T) {
	var fc compress.FieldCompressor = New(2)
	if _, ok := fc.(compress.Lane32Compressor); !ok {
		t.Fatal("szlike.Compressor does not expose the float32 lane")
	}
	f := randomField32(50, 50, 11)
	res, err := compress.RunField32(fc, f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK {
		t.Fatalf("native lane bound violated: %+v", res)
	}
	if res.MaxAbsError > 1e-3 {
		t.Fatalf("maxErr %g > 1e-3", res.MaxAbsError)
	}
	if res.Ratio <= 1 {
		t.Fatalf("expected compression, got ratio %v", res.Ratio)
	}
	// Rank-3 fields must be rejected by the 2D lane, not mis-shaped.
	f3 := field.New32(4, 4, 4)
	if _, err := fc.(compress.Lane32Compressor).CompressField32(f3, 1e-3); err == nil {
		t.Fatal("rank-3 field accepted by 2D float32 lane")
	}
}

// TestLane32Corrupt pins stream validation: a float64-lane stream and
// truncated bytes both fail cleanly.
func TestLane32Corrupt(t *testing.T) {
	rng := xrand.New(1)
	g := grid.FromFunc(16, 16, func(r, c int) float64 { return rng.NormFloat64() })
	f64Stream, err := New(2).CompressField(field.FromGrid(g), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(2).DecompressField32(f64Stream); err == nil {
		t.Fatal("float64 stream accepted by float32 lane")
	}
	f := randomField32(16, 16, 2)
	data, err := New(2).CompressField32(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(2).DecompressField32(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	if _, err := New(2).DecompressField(data); err == nil {
		t.Fatal("float32 stream accepted by float64 lane")
	}
	if _, err := New(3).DecompressField32(data); err == nil {
		t.Fatal("rank-2 stream accepted by rank-3 codec")
	}
}

// BenchmarkSZLikeLanes pairs the float64 and native float32 codec
// lanes over the same samples — the per-codec bandwidth gauge behind
// the BENCH_pr7.json record (the variogram pair is the headline one).
func BenchmarkSZLikeLanes(b *testing.B) {
	const edge = 512
	f32 := randomField32(edge, edge, 19)
	g := f32.Widen()
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(len(g.Data)) * 8)
		for i := 0; i < b.N; i++ {
			if _, err := New(2).CompressField(g, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(len(f32.Data)) * 4)
		for i := 0; i < b.N; i++ {
			if _, err := New(2).CompressField32(f32, 1e-3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
