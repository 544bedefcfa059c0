package compress

// Float32-lane measurement. Codecs that can quantize directly from
// float32 samples implement Lane32Compressor; everything else is
// measured through a widen→compress→narrow fallback. Either way the
// measurement compares the reconstruction against the float32
// original, because that is the data the caller actually has — the
// error bound is enforced on the narrow lane's values.

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
)

// Lane32Compressor is the optional native float32 lane of a
// FieldCompressor: CompressField32 must guarantee max|x−x̂| <= absErr
// over the float32 samples without a float64 staging copy of the
// field.
type Lane32Compressor interface {
	FieldCompressor
	// CompressField32 encodes f under the absolute error bound absErr,
	// quantizing directly from float32 samples.
	CompressField32(f *field.Field32, absErr float64) ([]byte, error)
	// DecompressField32 reconstructs the float32 field from
	// CompressField32's output.
	DecompressField32(data []byte) (*field.Field32, error)
}

// RunField32 compresses, decompresses, and measures the float32 field
// f with c at absErr. Native Lane32Compressors run without any
// full-field widening; other codecs measure through the widen→narrow
// fallback (float32→float64 is exact and the reconstruction is
// re-narrowed before comparison, so the bound check still reflects
// what a float32 consumer would see — with the bound slackened by one
// narrow-rounding ulp for the fallback path).
func RunField32(c FieldCompressor, f *field.Field32, absErr float64) (Result, error) {
	if absErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive error bound %v", absErr)
	}
	var (
		data []byte
		dec  *field.Field32
		err  error
	)
	if l32, ok := c.(Lane32Compressor); ok {
		data, err = l32.CompressField32(f, absErr)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
		}
		dec, err = l32.DecompressField32(data)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), err)
		}
	} else {
		wide := f.Widen()
		data, err = c.CompressField(wide, absErr)
		if err != nil {
			return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
		}
		decWide, derr := c.DecompressField(data)
		if derr != nil {
			return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), derr)
		}
		dec = decWide.Narrow()
	}
	maxErr, err := f.MaxAbsDiff(dec)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	mse, err := f.MSE(dec)
	if err != nil {
		return Result{}, err
	}
	// Bound slack: native lanes enforce the bound on float32 values
	// directly; the fallback's reconstruction picks up at most half a
	// float32 ulp of the reconstructed magnitude when narrowed. The
	// peak is over finite samples, so an Inf in the field cannot widen
	// the slack to +Inf.
	s := f.Summary()
	slack := absErr * 1e-12
	if _, native := c.(Lane32Compressor); !native {
		peak := 0.0
		for _, v := range f.Data {
			if a := math.Abs(float64(v)); a > peak && !math.IsInf(a, 0) {
				peak = a
			}
		}
		slack += (peak + absErr) * 1.2e-7
	}
	res := Result{
		Compressor:     c.Name(),
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           psnrRange(s.ValueRange, mse),
		BoundOK:        maxErr <= absErr+slack,
	}
	if len(data) > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(len(data))
	}
	return res, nil
}

// psnrRange is PSNRField over a precomputed value range.
func psnrRange(vr, mse float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	if vr == 0 {
		return 0
	}
	return 20*math.Log10(vr) - 10*math.Log10(mse)
}
