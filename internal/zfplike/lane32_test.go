package zfplike

import (
	"math"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/field"
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

func roundtrip32(t *testing.T, f *field.Field32, eb float64) *field.Field32 {
	t.Helper()
	data, err := New(2).CompressField32(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(2).DecompressField32(data)
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

// TestLane32RoundTrip pins the native float32 lane bound strictly on
// float32 values across bounds and clipped-edge shapes: the half-
// tolerance coded path plus the f32-representability argument means no
// widened slack is needed.
func TestLane32RoundTrip(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {17, 33}, {1, 40}, {3, 5}} {
		for _, eb := range []float64{1e-1, 1e-3, 1e-5} {
			f := randomField32(sz[0], sz[1], uint64(11*sz[0]+sz[1]))
			roundtrip32(t, f, eb)
		}
	}
}

// TestLane32RawPath drives the raw-block fallback: a tolerance finer
// than the doubled fixed-point floor stores float32 samples exactly.
func TestLane32RawPath(t *testing.T) {
	rng := xrand.New(5)
	f := field.New32(16, 16)
	for i := range f.Data {
		f.Data[i] = float32(1e6 + rng.NormFloat64())
	}
	dec := roundtrip32(t, f, 1e-12)
	for i := range f.Data {
		if f.Data[i] != dec.Data[i] {
			t.Fatalf("sample %d: %v != %v (expected raw exact)", i, f.Data[i], dec.Data[i])
		}
	}
}

// TestLane32NonFinite pins that non-finite blocks bypass the transform
// and survive exactly through 4-byte raw storage.
func TestLane32NonFinite(t *testing.T) {
	f := randomField32(12, 12, 7)
	f.Data[0] = float32(math.NaN())
	f.Data[50] = float32(math.Inf(-1))
	data, err := New(2).CompressField32(f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := New(2).DecompressField32(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(dec.Data[0])) || !math.IsInf(float64(dec.Data[50]), -1) {
		t.Fatalf("special values lost: %v %v", dec.Data[0], dec.Data[50])
	}
}

// TestLane32ThroughRegistry pins the lane as the measurement harness
// sees it and the measured bound via RunField32's native path, on
// both ranks.
func TestLane32ThroughRegistry(t *testing.T) {
	var fc compress.FieldCompressor = New(2)
	if _, ok := fc.(compress.Lane32Compressor); !ok {
		t.Fatal("zfplike.Compressor does not expose the float32 lane")
	}
	f3 := field.New32(9, 10, 11)
	copy(f3.Data, randomField32(9, 110, 14).Data)
	if res, err := compress.RunField32(New(3), f3, 1e-3); err != nil || !res.BoundOK {
		t.Fatalf("rank-3 native lane: %+v, %v", res, err)
	}
	f := randomField32(50, 50, 13)
	res, err := compress.RunField32(fc, f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK || res.MaxAbsError > 1e-3 {
		t.Fatalf("native lane bound violated: %+v", res)
	}
	if res.Ratio <= 1 {
		t.Fatalf("expected compression, got ratio %v", res.Ratio)
	}
}

// TestLane32Corrupt pins lane and truncation validation.
func TestLane32Corrupt(t *testing.T) {
	f := randomField32(16, 16, 3)
	data, err := New(2).CompressField32(f, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(2).DecompressField32(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream accepted")
	}
	f64Stream, err := New(2).CompressField(f.Widen(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(2).DecompressField32(f64Stream); err == nil {
		t.Fatal("float64 stream accepted by float32 lane")
	}
}
