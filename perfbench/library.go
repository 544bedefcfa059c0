package main

// The closed-loop workloads: one caller runs op after op through the
// library's public entry points, rotating over the run's inputs.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"lossycorr"
	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
)

// closedOps is a closed-loop workload: n inputs, a timed op on one of
// them, and an untimed check of its result that returns a fingerprint
// (every repeat of an input must reproduce the fingerprint of its first
// result) and any compression ratios the op produced.
type closedOps interface {
	n() int
	// label names input i in reports and per-class metrics.
	label(i int) string
	run(i int, wrapped bool) (any, error)
	check(i int, res any) (fp string, ratios []float64, err error)
	close()
}

// maxFailures stops a phase whose ops keep failing.
const maxFailures = 100

// loop drives a closedOps as a runner.
type loop struct {
	ops   closedOps
	first []string
	fails []error
}

func (l *loop) close() { l.ops.close() }

func (l *loop) layerMetrics(*phase, map[string]metric) {}

// warm runs every input once, unwrapped and untimed; those results are
// the references every later op is compared against.
func (l *loop) warm() {
	n := l.ops.n()
	l.first, l.fails = make([]string, n), make([]error, n)
	for i := 0; i < n; i++ {
		res, err := l.ops.run(i, false)
		if err == nil {
			l.first[i], _, err = l.ops.check(i, res)
		}
		l.fails[i] = err
	}
}

func (l *loop) measure(d time.Duration, tr *tracer) (*phase, error) {
	if l.first == nil {
		l.warm()
	}
	theProbe.tr.Store(tr)
	defer theProbe.tr.Store(nil)
	p := &phase{inputs: make([][]float64, l.ops.n())}
	start := time.Now()
	// Whole rotations only, so every input weighs the same.
	for i := 0; time.Since(start) < d || i%l.ops.n() != 0; i++ {
		in := i % l.ops.n()
		o := tr.beginOp(i, l.ops.label(in))
		c0, s0 := cpuTime(), stealMs()
		t := time.Now()
		res, err := l.ops.run(in, tr != nil)
		el := time.Since(t)
		stolen := stealMs() - s0
		p.cpu += cpuTime() - c0
		tr.endOp(o)
		p.wall += el
		if err == nil {
			var fp string
			var ratios []float64
			fp, ratios, err = l.ops.check(in, res)
			switch {
			case err != nil:
			case l.fails[in] != nil:
				err = fmt.Errorf("%s: first run failed: %v", l.ops.label(in), l.fails[in])
			case fp != l.first[in]:
				err = fmt.Errorf("%s: result differs from its first result: %s", l.ops.label(in), firstDiff(fp, l.first[in]))
			}
			p.ratios = append(p.ratios, ratios...)
		}
		p.record(ms(el), stolen, err)
		p.inputs[in] = append(p.inputs[in], p.lat[len(p.lat)-1])
		if p.failed >= maxFailures {
			p.notes = append(p.notes, fmt.Sprintf("stopped after %d failed ops", p.failed))
			break
		}
	}
	if len(p.inputs) > 1 {
		for in, xs := range p.inputs {
			p.notes = append(p.notes, fmt.Sprintf("%s: %d ops, p50 %.3f ms", l.ops.label(in), len(xs), median(xs)))
		}
	}
	return p, nil
}

// firstDiff names the first ';'-separated item where two fingerprints
// differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, ";"), strings.Split(want, ";")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			wi := "nothing"
			if i < len(w) {
				wi = w[i]
			}
			return fmt.Sprintf("%s, was %s", g[i], wi)
		}
	}
	return fmt.Sprintf("%d items, was %d", len(g), len(w))
}

// options returns o ready for an op: when wrapped, the wrappers get o's
// per-kernel options and the selection names the wrappers. Once the
// wrappers are registered, an unwrapped op names the built-in kernels:
// an empty selection would run both sets.
func options(o core.AnalysisOptions, wrapped bool) core.AnalysisOptions {
	switch {
	case wrapped:
		setKernelOptions(o)
		o.Stats = tracedStats(o.Stats)
	case len(o.Stats) == 0 && wrappersRegistered.Load():
		o.Stats = builtinKernels
	}
	return o
}

// checkStats requires every statistic to be present and finite and
// returns the result's fingerprint.
func checkStats(s core.Statistics, want ...string) (string, error) {
	for _, k := range want {
		v, ok := s[k]
		if !ok {
			return "", fmt.Errorf("statistic %s missing", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("statistic %s = %v is not finite", k, v)
		}
	}
	return statsFingerprint(s), nil
}

// statsFingerprint prints every statistic's bits in key order.
func statsFingerprint(s core.Statistics) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%x;", k, math.Float64bits(s[k]))
	}
	return b.String()
}

var allStats = []string{core.StatGlobalRange, core.StatGlobalSill, core.StatLocalRangeStd, core.StatLocalSVDStd}

// ---- analyze ---------------------------------------------------------

// analyzeOps rotates default AnalyzeField over 512x512 fields: Gaussian
// fields at two of the paper's ranges and one hydro turbulence field.
type analyzeOps struct{ fields []*field.Field }

const analyzeEdge = 512

// analyzeRanges are the Gaussian inputs' ranges; the hydro field
// follows them.
var analyzeRanges = []float64{8, 8, 24}

var analyzeLabels = []string{"gauss8a", "gauss8b", "gauss24", "hydro"}

func newAnalyze(seed uint64, _ string) (runner, error) {
	a := &analyzeOps{}
	for k, r := range analyzeRanges {
		f, err := gauss2D(seed, k, analyzeEdge, r)
		if err != nil {
			return nil, err
		}
		a.fields = append(a.fields, f)
	}
	h, err := hydroTiled(seed, 3, analyzeEdge)
	if err != nil {
		return nil, err
	}
	a.fields = append(a.fields, h)
	return &loop{ops: a}, nil
}

func (a *analyzeOps) n() int             { return len(a.fields) }
func (a *analyzeOps) label(i int) string { return analyzeLabels[i] }
func (a *analyzeOps) close()             {}

func (a *analyzeOps) run(i int, wrapped bool) (any, error) {
	return lossycorr.AnalyzeField(a.fields[i], options(core.AnalysisOptions{}, wrapped))
}

func (a *analyzeOps) check(_ int, res any) (string, []float64, error) {
	fp, err := checkStats(res.(core.Statistics), allStats...)
	return fp, nil, err
}

// ---- spectral ----------------------------------------------------------

// spectralClasses are the spectral workload's inputs, one per cost
// class, run in this fixed rotation: 512x512 on the float64 lane, the
// same field on the float32 lane, a 64^3 float64 volume in RAM, and a
// volume file streamed under a budget.
var spectralClasses = []string{"f64_2d", "f32_2d", "f64_3d", "stream_3d"}

const (
	classF64_2D = iota
	classF32_2D
	classF64_3D
	classStream3D
)

// streamShape is the streamed volume, long along axis 0 so the sharded
// engine can cut it into slabs under streamBudget, which is below the
// in-RAM analysis's working set (the field plus its padded transform
// planes), so AnalyzeReader streams.
var streamShape = [3]int{128, 32, 32}

const streamBudget = 11 << 20

// tileReadsTotal counts every block read of the streamed volume, traced
// or not, so each op can prove it read the file.
var tileReadsTotal atomic.Int64

// spectralOps runs the global variogram alone through the FFT engine
// (Stats ["variogram"], VariogramFFT) over the four classes.
type spectralOps struct {
	f64  *field.Field
	f32  *field.Field32
	vol  *field.Field
	tr   *field.TileReader
	file *os.File
	path string
}

// spectralResult is a spectral op's statistics plus what the stream
// class must prove: it read the file and stayed under its budget.
type spectralResult struct {
	stats core.Statistics
	reads int64
	peak  int64
}

func newSpectral(seed uint64, out string) (runner, error) {
	s := &spectralOps{}
	err := func() error {
		var err error
		if s.f64, err = gauss2D(seed, 0, 512, 16); err != nil {
			return err
		}
		s.f32 = s.f64.Narrow()
		if s.vol, err = gauss3D(seed, 1, [3]int{64, 64, 64}, 8); err != nil {
			return err
		}
		return s.openStream(seed, out)
	}()
	if err != nil {
		s.close()
		return nil, err
	}
	return &loop{ops: s}, nil
}

// openStream writes the seeded volume to a file and opens it for
// out-of-core access through the counting reader.
func (s *spectralOps) openStream(seed uint64, out string) error {
	f, err := gauss3D(seed, 2, streamShape, 8)
	if err != nil {
		return err
	}
	s.path = filepath.Join(out, fmt.Sprintf("stream-%d-%d.lcf", os.Getpid(), seed))
	w, err := os.Create(s.path)
	if err != nil {
		return err
	}
	if err := f.WriteBinary(w); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if s.file, err = os.Open(s.path); err != nil {
		return err
	}
	st, err := s.file.Stat()
	if err != nil {
		return err
	}
	if need := inRAMBytes(streamShape); need <= streamBudget {
		return fmt.Errorf("stream: the in-RAM analysis needs %d B, within the %d B budget: it would not stream", need, streamBudget)
	}
	s.tr, err = field.NewTileReader(countingReaderAt{s.file}, st.Size(), len(f.Data))
	return err
}

// inRAMBytes is the working set AnalyzeReader weighs against MemBudget
// for an FFT variogram with the default lag: the field plus four padded
// planes (core's inRAMBytes). A budget below it makes AnalyzeReader
// stream.
func inRAMBytes(shape [3]int) int64 {
	lag := min(shape[0], shape[1], shape[2]) / 2
	field, planes := int64(8), int64(4*8)
	for _, d := range shape {
		field *= int64(d)
		planes *= int64(fft.FastLen(d + lag))
	}
	return field + planes
}

func (s *spectralOps) n() int             { return len(spectralClasses) }
func (s *spectralOps) label(i int) string { return spectralClasses[i] }

func (s *spectralOps) close() {
	if s.file != nil {
		s.file.Close()
	}
	if s.path != "" {
		os.Remove(s.path)
	}
}

func (s *spectralOps) run(i int, wrapped bool) (any, error) {
	o := core.AnalysisOptions{Stats: []string{"variogram"}, VariogramFFT: true}
	if i == classStream3D {
		o.MemBudget = streamBudget
	}
	o = options(o, wrapped)
	var res spectralResult
	var err error
	switch i {
	case classF64_2D:
		res.stats, err = lossycorr.AnalyzeField(s.f64, o)
	case classF32_2D:
		res.stats, err = lossycorr.AnalyzeField32(s.f32, o)
	case classF64_3D:
		res.stats, err = lossycorr.AnalyzeField(s.vol, o)
	case classStream3D:
		fft.ResetPeakBytes()
		r0 := tileReadsTotal.Load()
		res.stats, err = lossycorr.AnalyzeReader(s.tr, o)
		res.reads = tileReadsTotal.Load() - r0
		res.peak = fft.PeakBytes()
	}
	return res, err
}

func (s *spectralOps) check(i int, v any) (string, []float64, error) {
	res := v.(spectralResult)
	if i == classStream3D {
		if res.reads == 0 {
			return "", nil, fmt.Errorf("stream: no block reads")
		}
		if res.peak > streamBudget {
			return "", nil, fmt.Errorf("stream: transform pool peak %d B over the %d B budget", res.peak, streamBudget)
		}
	}
	fp, err := checkStats(res.stats, core.StatGlobalRange, core.StatGlobalSill)
	if err == nil && len(res.stats) != 2 {
		err = fmt.Errorf("got %d statistics, want the 2 of the variogram kernel", len(res.stats))
	}
	return fp, nil, err
}

// ---- measure -----------------------------------------------------------

// measureOps runs MeasureFieldSet on one 256x256 field and one 40^3
// volume (about the same element count) with every codec of each
// rank at the four paper bounds, through a registry of wrapped codecs.
// The ops rotate over measureSets such pairs: codec and analysis costs
// depend on the realization, and one pair per run would make the run
// read that one pair's cost.
type measureOps struct {
	sets [][]*field.Field
	sink *codecSink
	reg  *compress.Registry
}

const measureSets = 3

func newMeasure(seed uint64, _ string) (runner, error) {
	m := &measureOps{sink: &codecSink{pending: map[*byte]pendingRun{}}}
	for k := 0; k < measureSets; k++ {
		f2, err := gauss2D(seed, 2*k, 256, 8)
		if err != nil {
			return nil, err
		}
		f3, err := gauss3D(seed, 2*k+1, [3]int{40, 40, 40}, 8)
		if err != nil {
			return nil, err
		}
		m.sets = append(m.sets, []*field.Field{f2, f3})
	}
	m.reg = wrappedRegistry(m.sink)
	return &loop{ops: m}, nil
}

func (m *measureOps) n() int             { return len(m.sets) }
func (m *measureOps) label(i int) string { return fmt.Sprintf("set%d", i) }
func (m *measureOps) close()             {}

func (m *measureOps) run(i int, wrapped bool) (any, error) {
	m.sink.take() // drop what a failed op left behind
	o := core.MeasureOptions{Analysis: options(core.AnalysisOptions{}, wrapped)}
	return core.MeasureFieldSet("perfbench", m.sets[i], nil, m.reg, o)
}

func (m *measureOps) check(i int, v any) (string, []float64, error) {
	ms := v.([]core.Measurement)
	runs := m.sink.take()
	ebs := compress.PaperErrorBounds
	want := 0
	for _, f := range m.sets[i] {
		want += len(m.reg.AllFor(f.NDim())) * len(ebs)
	}
	if len(runs) != want {
		return "", nil, fmt.Errorf("codec wrappers saw %d compress/decompress pairs, want %d", len(runs), want)
	}
	for _, r := range runs {
		if r.unpaired {
			return "", nil, fmt.Errorf("a compress call had no matching decompress call")
		}
		if e := maxAbsErr(r.orig, r.dec); !(e <= r.eb*(1+1e-12)) {
			return "", nil, fmt.Errorf("%s at bound %g: recomputed max error %g", r.codec, r.eb, e)
		}
	}
	var b strings.Builder
	var ratios []float64
	for _, x := range ms {
		fp, err := checkStats(x.Stats, allStats...)
		if err != nil {
			return "", nil, err
		}
		b.WriteString(fp)
		for _, r := range x.Results {
			fmt.Fprintf(&b, "%s@%g:%d/%x;", r.Compressor, r.ErrorBound, r.CompressedSize, math.Float64bits(r.MaxAbsError))
			ratios = append(ratios, r.Ratio)
		}
	}
	return b.String(), ratios, nil
}

// maxAbsErr is the largest |a-b| over the two fields; a shape mismatch
// or a non-finite difference reads as +Inf.
func maxAbsErr(a, b *field.Field) float64 {
	if b == nil || len(a.Data) != len(b.Data) {
		return math.Inf(1)
	}
	m := 0.0
	for i, x := range a.Data {
		d := math.Abs(x - b.Data[i])
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		if d > m {
			m = d
		}
	}
	return m
}
