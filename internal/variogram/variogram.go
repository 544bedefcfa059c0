// Package variogram estimates empirical semi-variograms of 2D fields
// and fits the squared-exponential parametric model the paper uses to
// extract the correlation range — globally (whole field) and locally
// (tiled windows, whose range standard deviation is the heterogeneity
// statistic of Section V-B).
//
// The empirical semi-variogram of a field z over grid points x_i is
//
//	γ(h) = 1/(2N(h)) · Σ_{|x_i−x_j|≈h} (z(x_i) − z(x_j))²
//
// computed here with Euclidean inter-point distances binned to unit
// lags. Two estimators are provided: an exact offset scan (every pair
// within the cutoff; cost O(cutoff²·n)) for small fields/windows, and a
// pair-sampling Monte Carlo estimator for large fields, the same
// trade-off practical geostatistics packages (gstat) make internally.
package variogram

import (
	"fmt"
	"math"

	"lossycorr/internal/field"
	"lossycorr/internal/grid"
	"lossycorr/internal/linalg"
)

// Empirical holds a binned empirical semi-variogram.
type Empirical struct {
	H     []float64 // bin centers (lag distance)
	Gamma []float64 // semi-variance per bin
	N     []int64   // pair count per bin
}

// Options controls estimation.
type Options struct {
	// MaxLag is the distance cutoff. 0 means min(rows, cols)/2,
	// the usual geostatistical rule of thumb.
	MaxLag int
	// MaxPairs caps the number of sampled pairs for the Monte Carlo
	// estimator. 0 means 400_000.
	MaxPairs int
	// Exact forces the exhaustive offset scan regardless of size.
	Exact bool
	// FFT selects the FFT exact engine for global scans: every lag
	// cross-product and valid-pair count at once from zero-padded
	// autocorrelations (O(P log P) on the padded size P instead of
	// O(N·L^d)), binned identically to the direct scan. Pair counts
	// match the direct scan exactly and Gamma to roundoff (the
	// equivalence test pins 1e-9 relative). Windowed estimators ignore
	// it — their windows are small enough that the direct scan wins.
	FFT bool
	// Seed feeds the pair sampler (ignored for exact scans).
	Seed uint64
	// Workers bounds the goroutines used by the windowed estimators
	// (LocalRanges and friends) and by the global exact scan, which
	// fans distance bins out over the pool. 0 means GOMAXPROCS; 1
	// forces the serial path. Results are bit-identical for every
	// value.
	Workers int
}

// Compute estimates the empirical semi-variogram of g. It is the
// rank-2 view of ComputeField; see ndim.go for the generic engine.
func Compute(g *grid.Grid, opts Options) (*Empirical, error) {
	return ComputeField(field.FromGrid(g), opts)
}

func collect(sum []float64, cnt []int64) *Empirical {
	e := &Empirical{}
	for bin := 1; bin < len(sum); bin++ {
		if cnt[bin] == 0 {
			continue
		}
		e.H = append(e.H, float64(bin))
		e.Gamma = append(e.Gamma, sum[bin]/(2*float64(cnt[bin])))
		e.N = append(e.N, cnt[bin])
	}
	return e
}

// Model is a fitted squared-exponential variogram
//
//	γ(h) = Sill · (1 − exp(−h²/Range²))
//
// Range is directly comparable to the generating correlation range of
// the synthetic Gaussian fields. RangePaper = Range² is the paper's
// γ(h)=c0(1−exp(−h²/a)) parametrization of the same fit.
type Model struct {
	Sill       float64
	Range      float64
	RangePaper float64
	RSS        float64 // weighted residual sum of squares of the fit
}

// Gamma evaluates the fitted model at lag h.
func (m Model) Gamma(h float64) float64 {
	if m.Range == 0 {
		return m.Sill
	}
	return m.Sill * (1 - math.Exp(-h*h/(m.Range*m.Range)))
}

// Fit estimates the squared-exponential model from an empirical
// variogram by pair-count-weighted least squares: for a candidate range
// the optimal sill has a closed form, and the range itself is located
// by golden-section search.
func Fit(e *Empirical) (Model, error) {
	if len(e.H) < 2 {
		return Model{}, fmt.Errorf("variogram: %d bins are too few to fit", len(e.H))
	}
	hMax := e.H[len(e.H)-1]
	obj := func(r float64) (float64, float64) { // returns (rss, sill)
		var num, den float64
		for i, h := range e.H {
			f := 1 - math.Exp(-h*h/(r*r))
			w := float64(e.N[i])
			num += w * f * e.Gamma[i]
			den += w * f * f
		}
		if den == 0 {
			return math.Inf(1), 0
		}
		sill := num / den
		var rss float64
		for i, h := range e.H {
			f := sill * (1 - math.Exp(-h*h/(r*r)))
			d := f - e.Gamma[i]
			rss += float64(e.N[i]) * d * d
		}
		return rss, sill
	}
	lo, hi := 0.25, 8*hMax
	r := linalg.GoldenMinimize(func(x float64) float64 { rss, _ := obj(x); return rss }, lo, hi, 1e-4*hMax)
	rss, sill := obj(r)
	return Model{Sill: sill, Range: r, RangePaper: r * r, RSS: rss}, nil
}

// GlobalRange estimates the variogram range of the entire field: the
// "Estimated global variogram range" axis of Figures 3 and 4.
func GlobalRange(g *grid.Grid, opts Options) (Model, error) {
	return GlobalRangeField(field.FromGrid(g), opts)
}

// LocalRanges tiles the field with h×h windows and estimates a
// variogram range per window (exact scan; windows are small). Windows
// smaller than 4×4 after clipping, or constant windows, are skipped.
// Tiles are evaluated on the shared worker pool (opts.Workers) — each
// worker extracts its window lazily, so only ~Workers windows are live
// at once — and collected in tile order, so the result is independent
// of scheduling.
func LocalRanges(g *grid.Grid, h int, opts Options) ([]float64, error) {
	return LocalRangesField(field.FromGrid(g), h, opts)
}

// LocalRangeStd is the "Std estimated of local variogram range (H=h)"
// statistic: the standard deviation of per-window ranges.
func LocalRangeStd(g *grid.Grid, h int, opts Options) (float64, error) {
	return LocalRangeStdField(field.FromGrid(g), h, opts)
}
