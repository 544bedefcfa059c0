package compress

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"lossycorr/internal/field"
	"lossycorr/internal/grid"
)

// roundingCompressor is a trivial test codec: rounds to multiples of eb
// and stores the field verbatim in its binary format.
type roundingCompressor struct{ name string }

func (c roundingCompressor) Name() string { return c.name }
func (c roundingCompressor) Ranks() []int { return []int{2} }

func (c roundingCompressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	var buf bytes.Buffer
	q := f.Clone()
	for i, v := range q.Data {
		q.Data[i] = math.Round(v/absErr) * absErr
	}
	if err := q.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (c roundingCompressor) DecompressField(data []byte) (*field.Field, error) {
	return field.ReadBinary(bytes.NewReader(data))
}

// brokenCompressor violates its bound.
type brokenCompressor struct{ roundingCompressor }

func (c brokenCompressor) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	return c.roundingCompressor.CompressField(f, absErr*100)
}

func testField() *field.Field {
	return field.FromGrid(grid.FromFunc(16, 16, func(r, c int) float64 {
		return math.Sin(float64(r)/3) * math.Cos(float64(c)/5)
	}))
}

func TestRunMetrics(t *testing.T) {
	res, err := RunField(roundingCompressor{"round"}, testField(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BoundOK {
		t.Fatalf("bound violated: %+v", res)
	}
	if res.MaxAbsError > 0.005+1e-12 {
		t.Fatalf("rounding error %v above half bin", res.MaxAbsError)
	}
	if res.OriginalSize != 16*16*8 {
		t.Fatalf("original size %d", res.OriginalSize)
	}
	if res.Ratio <= 0 {
		t.Fatalf("ratio %v", res.Ratio)
	}
	if res.PSNR < 40 {
		t.Fatalf("PSNR %v unexpectedly low", res.PSNR)
	}
	if res.Compressor != "round" || res.ErrorBound != 0.01 {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestRunDetectsBoundViolation(t *testing.T) {
	res, err := RunField(brokenCompressor{roundingCompressor{"broken"}}, testField(), 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundOK {
		t.Fatal("violation not detected")
	}
}

func TestRunRejectsBadBound(t *testing.T) {
	if _, err := RunField(roundingCompressor{"r"}, testField(), 0); err == nil {
		t.Fatal("expected error for eb=0")
	}
	if _, err := RunField(roundingCompressor{"r"}, testField(), -1); err == nil {
		t.Fatal("expected error for eb<0")
	}
}

func TestPSNR(t *testing.T) {
	f := testField()
	if !math.IsInf(PSNRField(f, 0), 1) {
		t.Fatal("zero MSE should give +Inf PSNR")
	}
	vr := f.Summary().ValueRange
	// mse = vr² gives 0 dB
	if p := PSNRField(f, vr*vr); math.Abs(p) > 1e-9 {
		t.Fatalf("PSNR(vr²)=%v want 0", p)
	}
	if p := PSNRField(field.New(4, 4), 1); p != 0 {
		t.Fatalf("constant-field PSNR %v", p)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterField(roundingCompressor{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterField(roundingCompressor{"a"}); err == nil {
		t.Fatal("duplicate registration must error")
	}
	if err := r.RegisterField(roundingCompressor{"b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetFor("a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GetFor("zzz", 2); err == nil {
		t.Fatal("unknown lookup must error")
	}
	names := r.NamesFor(0)
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	all := r.AllFor(2)
	if len(all) != 2 || all[0].Name() != "a" {
		t.Fatalf("AllFor(2) wrong order")
	}
}

func TestRunRelative(t *testing.T) {
	f := testField() // value range ~2
	vr := f.Summary().ValueRange
	res, err := RunRelativeField(roundingCompressor{"round"}, f, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != 1e-2*vr {
		t.Fatalf("absolute bound %v want %v", res.ErrorBound, 1e-2*vr)
	}
	if !res.BoundOK {
		t.Fatalf("bound violated: %+v", res)
	}
	// constant field falls back to the relative value as absolute
	res, err = RunRelativeField(roundingCompressor{"round"}, field.New(4, 4), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorBound != 0.5 {
		t.Fatalf("constant-field bound %v", res.ErrorBound)
	}
	if _, err := RunRelativeField(roundingCompressor{"round"}, f, 0); err == nil {
		t.Fatal("expected error for rel=0")
	}
}

func TestPaperErrorBounds(t *testing.T) {
	want := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	if len(PaperErrorBounds) != len(want) {
		t.Fatalf("bounds %v", PaperErrorBounds)
	}
	for i := range want {
		if PaperErrorBounds[i] != want[i] {
			t.Fatalf("bounds %v", PaperErrorBounds)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	_, err := RunField(failingCompressor{}, testField(), 1e-3)
	if err == nil || !errors.Is(err, errBoom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

var errBoom = errors.New("boom")

type failingCompressor struct{}

func (failingCompressor) Name() string { return "fail" }
func (failingCompressor) Ranks() []int { return []int{2} }
func (failingCompressor) CompressField(*field.Field, float64) ([]byte, error) {
	return nil, errBoom
}
func (failingCompressor) DecompressField([]byte) (*field.Field, error) { return nil, errBoom }

// finiteOnly stores samples exactly but zeroes every NaN and ±Inf — a
// codec that looks perfect on the finite samples and loses the rest.
type finiteOnly struct{}

func (finiteOnly) Name() string { return "finite-only" }
func (finiteOnly) Ranks() []int { return []int{2} }

func zeroNonFinite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (finiteOnly) CompressField(f *field.Field, _ float64) ([]byte, error) {
	var buf bytes.Buffer
	g := f.Clone()
	for i, v := range g.Data {
		g.Data[i] = zeroNonFinite(v)
	}
	err := g.WriteBinary(&buf)
	return buf.Bytes(), err
}

func (finiteOnly) DecompressField(data []byte) (*field.Field, error) {
	return field.ReadBinary(bytes.NewReader(data))
}

// finiteOnly32 adds a native float32 lane with the same defect.
type finiteOnly32 struct{ finiteOnly }

func (finiteOnly32) CompressField32(f *field.Field32, _ float64) ([]byte, error) {
	var buf bytes.Buffer
	g := f.Clone()
	for i, v := range g.Data {
		g.Data[i] = float32(zeroNonFinite(float64(v)))
	}
	err := g.WriteBinary(&buf)
	return buf.Bytes(), err
}

func (finiteOnly32) DecompressField32(data []byte) (*field.Field32, error) {
	return field.ReadBinary32(bytes.NewReader(data))
}

// TestBoundOKNonFinite pins the non-finite bound policy: a codec that
// does not reproduce a NaN or an Inf fails the bound on both lanes,
// native and widened, while one that reproduces them passes.
func TestBoundOKNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := testField()
		f.Data[17] = bad
		res, err := RunField(finiteOnly{}, f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if res.BoundOK || !math.IsInf(res.MaxAbsError, 1) {
			t.Fatalf("RunField with %v lost: %+v", bad, res)
		}
		for _, c := range []FieldCompressor{finiteOnly{}, finiteOnly32{}} {
			res, err := RunField32(c, f.Narrow(), 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			if res.BoundOK || !math.IsInf(res.MaxAbsError, 1) {
				t.Fatalf("RunField32(%T) with %v lost: %+v", c, bad, res)
			}
		}
		res, err = RunField(roundingCompressor{"round"}, f, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if !res.BoundOK {
			t.Fatalf("reproduced %v failed the bound: %+v", bad, res)
		}
	}
}
