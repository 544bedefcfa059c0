package compress

// Dimension-aware compression. FieldCompressor is the rank-generic
// codec interface the measurement pipeline runs on, and the Registry
// serves lookups filtered by the rank of the field being measured.

import (
	"fmt"

	"lossycorr/internal/field"
)

// FieldCompressor is an error-bounded lossy compressor for dense
// fields. CompressField must guarantee max|x−x̂| <= absErr for every
// element of any field whose rank it supports.
type FieldCompressor interface {
	// Name identifies the compressor in experiment output.
	Name() string
	// Ranks lists the field ranks the codec accepts (e.g. {2} or {3}).
	Ranks() []int
	// CompressField encodes f under the absolute error bound absErr.
	CompressField(f *field.Field, absErr float64) ([]byte, error)
	// DecompressField reconstructs the field from CompressField's output.
	DecompressField(data []byte) (*field.Field, error)
}

// SupportsRank reports whether c accepts fields of the given rank.
func SupportsRank(c FieldCompressor, ndim int) bool {
	for _, r := range c.Ranks() {
		if r == ndim {
			return true
		}
	}
	return false
}

// RunField compresses, decompresses, and measures f with c at absErr.
func RunField(c FieldCompressor, f *field.Field, absErr float64) (Result, error) {
	if absErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive error bound %v", absErr)
	}
	data, err := c.CompressField(f, absErr)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	dec, err := c.DecompressField(data)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s decode: %w", c.Name(), err)
	}
	maxErr, err := f.MaxAbsDiff(dec)
	if err != nil {
		return Result{}, fmt.Errorf("compress: %s: %w", c.Name(), err)
	}
	mse, err := f.MSE(dec)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Compressor:     c.Name(),
		ErrorBound:     absErr,
		OriginalSize:   f.SizeBytes(),
		CompressedSize: len(data),
		MaxAbsError:    maxErr,
		MSE:            mse,
		PSNR:           PSNRField(f, mse),
		BoundOK:        maxErr <= absErr*(1+1e-12),
	}
	if len(data) > 0 {
		res.Ratio = float64(res.OriginalSize) / float64(len(data))
	}
	return res, nil
}

// RunRelativeField measures f under a value-range-relative error
// bound: the absolute bound is relErr times the field's value range.
// The paper notes the formal equivalence between the absolute mode and
// this mode (used natively by SZ); constant fields fall back to relErr
// itself.
func RunRelativeField(c FieldCompressor, f *field.Field, relErr float64) (Result, error) {
	if relErr <= 0 {
		return Result{}, fmt.Errorf("compress: non-positive relative bound %v", relErr)
	}
	vr := f.Summary().ValueRange
	abs := relErr * vr
	if abs == 0 {
		abs = relErr
	}
	return RunField(c, f, abs)
}

// PSNRField computes the peak signal-to-noise ratio in dB using the
// field's value range as peak (+Inf for a perfect reconstruction).
func PSNRField(f *field.Field, mse float64) float64 {
	return psnrRange(f.Summary().ValueRange, mse)
}
