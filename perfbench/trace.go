package main

// Tracing from the benchmark's own side of each layer boundary: a
// wrapper around every stat.Kernel the analysis hands to stat.Run, a
// compress.FieldCompressor wrapper in the registry MeasureFieldSet
// sweeps, and an io.ReaderAt wrapper under field.NewTileReader. Spans
// (name, start, end, parent, op id) are kept in memory and written out
// when the run ends; per-window calls are folded into a count and a
// busy time on their kernel's span.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/fft"
	"lossycorr/internal/field"
	"lossycorr/internal/stat"
	"lossycorr/internal/svdstat"
)

// span is one recorded interval. Times are ms since the tracer started.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Count  int64   `json:"count,omitempty"`
	Kept   int64   `json:"kept,omitempty"`
	BusyMs float64 `json:"busy_ms,omitempty"`
}

// kernAgg folds the calls of one kernel within one op.
type kernAgg struct {
	first, last time.Time
	count, kept int64
	busy        time.Duration
	fold        time.Duration
}

// codecCall is one compress or decompress call seen by codecWrap.
type codecCall struct {
	key   string // "<codec>.<rank>d"
	comp  bool
	start time.Time
	dur   time.Duration
	ratio float64 // compress calls only
}

// opTrace is everything the wrappers saw during one op.
type opTrace struct {
	id     int
	class  string // the op's input label
	start  time.Time
	cpu    time.Duration
	peakMB float64

	mu         sync.Mutex
	kern       map[string]*kernAgg
	codecs     []codecCall
	firstCodec map[*field.Field]time.Time

	tileReads atomic.Int64
	tileBytes atomic.Int64
	tileNs    atomic.Int64
}

// add folds one call into the aggregate.
func (a *kernAgg) add(start, end time.Time, keep bool) {
	if a.count == 0 || start.Before(a.first) {
		a.first = start
	}
	if end.After(a.last) {
		a.last = end
	}
	a.count++
	if keep {
		a.kept++
	}
	a.busy += end.Sub(start)
}

func (o *opTrace) agg(name string) *kernAgg {
	a := o.kern[name]
	if a == nil {
		a = &kernAgg{}
		o.kern[name] = a
	}
	return a
}

// tracer collects the spans and op records of one traced phase.
type tracer struct {
	t0  time.Time
	cur atomic.Pointer[opTrace]

	mu    sync.Mutex
	spans []span
	ops   []*opTrace
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e6 }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) spanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// beginOp opens op id; the wrappers attribute their calls to it until
// endOp. A nil tracer traces nothing.
func (t *tracer) beginOp(id int, class string) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{id: id, class: class, kern: map[string]*kernAgg{}, firstCodec: map[*field.Field]time.Time{}}
	fft.ResetPeakBytes()
	o.cpu = cpuTime()
	o.start = time.Now()
	t.cur.Store(o)
	return o
}

func (t *tracer) endOp(o *opTrace) {
	if t == nil || o == nil {
		return
	}
	end := time.Now()
	t.cur.Store(nil)
	o.cpu = cpuTime() - o.cpu
	o.peakMB = float64(fft.PeakBytes()) / (1 << 20)
	t.add(span{Name: "op", Op: o.id, Start: t.ms(o.start), End: t.ms(end)})
	o.mu.Lock()
	names := make([]string, 0, len(o.kern))
	for n := range o.kern {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := o.kern[n]
		t.add(span{Name: n, Op: o.id, Parent: "op", Start: t.ms(a.first), End: t.ms(a.last),
			Count: a.count, Kept: a.kept, BusyMs: ms(a.busy)})
	}
	for _, c := range o.codecs {
		name := "compress." + c.key + ".decompress"
		if c.comp {
			name = "compress." + c.key + ".compress"
		}
		t.add(span{Name: name, Op: o.id, Parent: "op", Start: t.ms(c.start), End: t.ms(c.start.Add(c.dur))})
	}
	o.mu.Unlock()
	if n := o.tileReads.Load(); n > 0 {
		t.add(span{Name: "field.tile_read", Op: o.id, Parent: "op", Start: t.ms(o.start), End: t.ms(end),
			Count: n, BusyMs: float64(o.tileNs.Load()) / 1e6})
	}
	t.mu.Lock()
	t.ops = append(t.ops, o)
	t.mu.Unlock()
}

func (t *tracer) current() *opTrace {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	return p, os.WriteFile(p, b, 0o644)
}

// ---- stat kernel wrappers -----------------------------------------

// probe is the state the wrappers share: the tracer of the current
// phase, the analysis options the wrapped kernels run with, and the
// delays the self-test injects, keyed by layer ("svdstat.window",
// "compress", ...).
type probe struct {
	tr    atomic.Pointer[tracer]
	opts  atomic.Pointer[map[string]any]
	delay sync.Map // layer name -> time.Duration
}

var theProbe = &probe{}

// Layer names of the built-in kernels, as span names and metric
// prefixes.
var kernelLayer = map[string]string{
	"variogram":  "variogram.global",
	"localrange": "variogram.local",
	"svd":        "svdstat.window",
}

// wrapPrefix prefixes the registry names of the wrappers.
const wrapPrefix = "perfbench."

var (
	registerOnce       sync.Once
	wrappersRegistered atomic.Bool
)

// builtinKernels are the kernels core registers, in registration order.
var builtinKernels = []string{"variogram", "localrange", "svd"}

// tracedStats registers a wrapper for every built-in kernel (once per
// process) and returns the selection that runs the wrappers in place of
// the built-ins named in sel (every built-in when sel is empty).
// Registration is process-global: after it, an analysis with an empty
// selection would run both sets, so every analysis of a process that
// traces names its kernels.
func tracedStats(sel []string) []string {
	registerOnce.Do(func() {
		for _, name := range builtinKernels {
			k, _ := stat.Lookup(name)
			switch kk := k.(type) {
			case stat.GlobalKernel:
				stat.MustRegister(globalWrap{kk})
			case stat.WindowKernel:
				stat.MustRegister(windowWrap{kk})
			}
		}
		wrappersRegistered.Store(true)
	})
	if len(sel) == 0 {
		sel = builtinKernels
	}
	out := make([]string, len(sel))
	for i, s := range sel {
		out[i] = wrapPrefix + s
	}
	return out
}

// kernelOptions builds the per-kernel options core hands to stat.Run
// for o (core.analyzeSource): the wrappers run under their own registry
// names, which carry no options, so they substitute these. The
// bit-identity check against untraced results guards the copy.
func kernelOptions(o core.AnalysisOptions) map[string]any {
	v := o.VariogramOpts
	if v.Workers == 0 {
		v.Workers = o.Workers
	}
	if o.VariogramFFT {
		v.FFT = true
	}
	frac := o.VarianceFraction
	if frac == 0 {
		frac = svdstat.DefaultVarianceFraction
	}
	return map[string]any{
		"variogram":  v,
		"localrange": v,
		"svd":        svdstat.Options{Frac: frac, Workers: o.Workers, Gram: o.SVDGram},
	}
}

// setKernelOptions makes the wrappers run with the options of o.
func setKernelOptions(o core.AnalysisOptions) {
	m := kernelOptions(o)
	theProbe.opts.Store(&m)
}

func (p *probe) opt(name string) any {
	if m := p.opts.Load(); m != nil {
		return (*m)[name]
	}
	return nil
}

// spin busy-waits for d: an injected delay that occupies a core, as a
// slower layer would.
func spin(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

func (p *probe) delayFor(layer string) time.Duration {
	if v, ok := p.delay.Load(layer); ok {
		return v.(time.Duration)
	}
	return 0
}

type globalWrap struct{ k stat.GlobalKernel }

func (w globalWrap) Name() string      { return wrapPrefix + w.k.Name() }
func (w globalWrap) Outputs() []string { return w.k.Outputs() }
func (w globalWrap) Caps() stat.Caps   { return w.k.Caps() }
func (w globalWrap) ErrLabel() string  { return stat.ErrLabel(w.k) }

func (w globalWrap) EvalGlobal(ctx context.Context, src stat.Source, req stat.Request, _ any) ([]float64, error) {
	layer := kernelLayer[w.k.Name()]
	spin(theProbe.delayFor(layer))
	start := time.Now()
	out, err := w.k.EvalGlobal(ctx, src, req, theProbe.opt(w.k.Name()))
	end := time.Now()
	if o := theProbe.tr.Load().current(); o != nil {
		o.mu.Lock()
		o.agg(layer).add(start, end, true)
		o.mu.Unlock()
	}
	return out, err
}

type windowWrap struct{ k stat.WindowKernel }

func (w windowWrap) Name() string            { return wrapPrefix + w.k.Name() }
func (w windowWrap) Outputs() []string       { return w.k.Outputs() }
func (w windowWrap) Caps() stat.Caps         { return w.k.Caps() }
func (w windowWrap) ErrLabel() string        { return stat.ErrLabel(w.k) }
func (w windowWrap) CheckWindow(h int) error { return w.k.CheckWindow(h) }

func (w windowWrap) EvalWindow(f *field.Field, _ any) (float64, bool, error) {
	layer := kernelLayer[w.k.Name()]
	spin(theProbe.delayFor(layer))
	start := time.Now()
	v, keep, err := w.k.EvalWindow(f, theProbe.opt(w.k.Name()))
	end := time.Now()
	if o := theProbe.tr.Load().current(); o != nil {
		o.mu.Lock()
		o.agg(layer).add(start, end, keep)
		o.mu.Unlock()
	}
	return v, keep, err
}

func (w windowWrap) Fold(vals []float64, info stat.FoldInfo, _ any) ([]float64, error) {
	start := time.Now()
	out, err := w.k.Fold(vals, info, theProbe.opt(w.k.Name()))
	end := time.Now()
	if o := theProbe.tr.Load().current(); o != nil {
		o.mu.Lock()
		a := o.agg(kernelLayer[w.k.Name()])
		a.fold += end.Sub(start)
		if end.After(a.last) {
			a.last = end
		}
		o.mu.Unlock()
	}
	return out, err
}

// ---- codec wrapper -------------------------------------------------

// codecWrap wraps one codec of the registry handed to MeasureFieldSet.
// It always keeps what the bound check needs (the original field, the
// decompressed field, the bound); with a tracer it also times calls.
type codecWrap struct {
	c    compress.FieldCompressor
	key  string
	sink *codecSink
}

// codecSink pairs each compress call with its decompress call through
// the payload's first byte (RunField hands DecompressField the slice
// CompressField returned) and keeps the pairs for the bound check.
type codecSink struct {
	mu      sync.Mutex
	pending map[*byte]pendingRun
	runs    []codecRun
}

type pendingRun struct {
	orig *field.Field
	eb   float64
}

type codecRun struct {
	codec    string
	eb       float64
	orig     *field.Field
	dec      *field.Field
	unpaired bool
}

func (s *codecSink) take() []codecRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.runs
	s.runs = nil
	for k := range s.pending {
		r = append(r, codecRun{unpaired: true})
		delete(s.pending, k)
	}
	return r
}

func (w codecWrap) Name() string { return w.c.Name() }
func (w codecWrap) Ranks() []int { return w.c.Ranks() }

func (w codecWrap) CompressField(f *field.Field, absErr float64) ([]byte, error) {
	spin(theProbe.delayFor("compress"))
	start := time.Now()
	b, err := w.c.CompressField(f, absErr)
	end := time.Now()
	if err == nil && len(b) > 0 {
		w.sink.mu.Lock()
		w.sink.pending[&b[0]] = pendingRun{orig: f, eb: absErr}
		w.sink.mu.Unlock()
	}
	if o := theProbe.tr.Load().current(); o != nil {
		r := 0.0
		if len(b) > 0 {
			r = float64(f.SizeBytes()) / float64(len(b))
		}
		o.mu.Lock()
		if _, seen := o.firstCodec[f]; !seen {
			o.firstCodec[f] = start
		}
		o.codecs = append(o.codecs, codecCall{key: w.key, comp: true, start: start, dur: end.Sub(start), ratio: r})
		o.mu.Unlock()
	}
	return b, err
}

func (w codecWrap) DecompressField(data []byte) (*field.Field, error) {
	start := time.Now()
	dec, err := w.c.DecompressField(data)
	end := time.Now()
	if len(data) > 0 {
		w.sink.mu.Lock()
		if p, ok := w.sink.pending[&data[0]]; ok {
			delete(w.sink.pending, &data[0])
			w.sink.runs = append(w.sink.runs, codecRun{codec: w.c.Name(), eb: p.eb, orig: p.orig, dec: dec})
		}
		w.sink.mu.Unlock()
	}
	if o := theProbe.tr.Load().current(); o != nil {
		o.mu.Lock()
		o.codecs = append(o.codecs, codecCall{key: w.key, start: start, dur: end.Sub(start)})
		o.mu.Unlock()
	}
	return dec, err
}

// codecKey is the metric key of a codec: "sz-like-3d" -> "sz.3d".
func codecKey(name string, rank int) string {
	base := strings.TrimSuffix(name, "-3d")
	base = strings.TrimSuffix(base, "-like")
	return base + "." + string(rune('0'+rank)) + "d"
}

// wrappedRegistry wraps every codec of core.DefaultRegistry.
func wrappedRegistry(sink *codecSink) *compress.Registry {
	def := core.DefaultRegistry()
	reg := compress.NewRegistry()
	for _, rank := range []int{2, 3} {
		for _, c := range def.AllFor(rank) {
			// The default registry's names are unique, so registration
			// cannot fail.
			_ = reg.RegisterField(codecWrap{c: c, key: codecKey(c.Name(), rank), sink: sink})
		}
	}
	return reg
}

// codecKeys lists the metric keys of every codec of the default
// registry, so every per-layer run reports the same names.
func codecKeys() []string {
	def := core.DefaultRegistry()
	var keys []string
	for _, rank := range []int{2, 3} {
		for _, c := range def.AllFor(rank) {
			keys = append(keys, codecKey(c.Name(), rank))
		}
	}
	return keys
}

// ---- tile I/O wrapper ----------------------------------------------

// countingReaderAt is the io.ReaderAt handed to field.NewTileReader:
// it attributes every block read to the current op.
type countingReaderAt struct{ r io.ReaderAt }

func (c countingReaderAt) ReadAt(b []byte, off int64) (int, error) {
	start := time.Now()
	n, err := c.r.ReadAt(b, off)
	tileReadsTotal.Add(1)
	if o := theProbe.tr.Load().current(); o != nil {
		o.tileReads.Add(1)
		o.tileBytes.Add(int64(n))
		o.tileNs.Add(time.Since(start).Nanoseconds())
	}
	return n, err
}

// ---- per-layer metrics ---------------------------------------------

// layerMetrics folds the traced ops into the per-layer metrics every
// workload reports; layers a workload does not reach read 0.
func layerMetrics(t *tracer) map[string]metric {
	m := map[string]metric{}
	// perClass is the median of f over the ops of one input class ("" for
	// every op), 0 without such ops.
	perClass := func(class string, f func(o *opTrace) float64) float64 {
		var xs []float64
		for _, o := range t.ops {
			if class == "" || o.class == class {
				xs = append(xs, f(o))
			}
		}
		return quantile0(xs, 0.5)
	}
	per := func(f func(o *opTrace) float64) float64 { return perClass("", f) }
	aggOf := func(o *opTrace, layer string) kernAgg {
		if a := o.kern[layer]; a != nil {
			return *a
		}
		return kernAgg{}
	}
	ratio := func(layer string) float64 {
		var n, k int64
		for _, o := range t.ops {
			a := aggOf(o, layer)
			n += a.count
			k += a.kept
		}
		if n == 0 {
			return 0
		}
		return float64(k) / float64(n)
	}
	share := func(layer string) float64 {
		return per(func(o *opTrace) float64 {
			if o.cpu <= 0 {
				return 0
			}
			return float64(aggOf(o, layer).busy) / float64(o.cpu)
		})
	}
	m["variogram.global_ms"] = metric{per(func(o *opTrace) float64 { return ms(aggOf(o, "variogram.global").busy) }), "ms"}
	m["variogram.local_ms"] = metric{per(func(o *opTrace) float64 { return ms(aggOf(o, "variogram.local").busy) }), "ms"}
	m["variogram.local_windows"] = metric{per(func(o *opTrace) float64 { return float64(aggOf(o, "variogram.local").count) }), "count"}
	m["variogram.local_kept_ratio"] = metric{ratio("variogram.local"), "ratio"}
	m["variogram.local_fold_ms"] = metric{per(func(o *opTrace) float64 { return ms(aggOf(o, "variogram.local").fold) }), "ms"}
	m["svdstat.window_ms"] = metric{per(func(o *opTrace) float64 { return ms(aggOf(o, "svdstat.window").busy) }), "ms"}
	m["svdstat.windows"] = metric{per(func(o *opTrace) float64 { return float64(aggOf(o, "svdstat.window").count) }), "count"}
	m["svdstat.kept_ratio"] = metric{ratio("svdstat.window"), "ratio"}
	m["variogram.global_cpu_share"] = metric{share("variogram.global"), "ratio"}
	m["variogram.local_cpu_share"] = metric{share("variogram.local"), "ratio"}
	m["svdstat.window_cpu_share"] = metric{share("svdstat.window"), "ratio"}

	// stat.Run's span runs from the first kernel call to the last fold.
	runSpan := func(o *opTrace) (time.Duration, time.Duration) {
		var first, last time.Time
		var busy time.Duration
		for _, a := range o.kern {
			if first.IsZero() || a.first.Before(first) {
				first = a.first
			}
			if a.last.After(last) {
				last = a.last
			}
			busy += a.busy + a.fold
		}
		if first.IsZero() {
			return 0, 0
		}
		return last.Sub(first), busy
	}
	m["stat.run_ms"] = metric{per(func(o *opTrace) float64 { w, _ := runSpan(o); return ms(w) }), "ms"}
	workers := float64(runtime.GOMAXPROCS(0))
	m["stat.busy_ratio"] = metric{per(func(o *opTrace) float64 {
		w, b := runSpan(o)
		if w <= 0 {
			return 0
		}
		return float64(b) / (float64(w) * workers)
	}), "ratio"}
	m["fft.pool_peak_mb"] = metric{per(func(o *opTrace) float64 { return o.peakMB }), "MB"}
	for _, c := range spectralClasses {
		m["variogram.global_ms."+c] = metric{perClass(c, func(o *opTrace) float64 { return ms(aggOf(o, "variogram.global").busy) }), "ms"}
		m["fft.pool_peak_mb."+c] = metric{perClass(c, func(o *opTrace) float64 { return o.peakMB }), "MB"}
	}
	m["field.tile_reads"] = metric{per(func(o *opTrace) float64 { return float64(o.tileReads.Load()) }), "count"}
	m["field.tile_read_mb"] = metric{per(func(o *opTrace) float64 { return float64(o.tileBytes.Load()) / (1 << 20) }), "MB"}
	m["field.tile_read_ms"] = metric{per(func(o *opTrace) float64 { return float64(o.tileNs.Load()) / 1e6 }), "ms"}

	for _, key := range codecKeys() {
		var logs []float64
		comp := per(func(o *opTrace) float64 { return codecSum(o, key, true) })
		dec := per(func(o *opTrace) float64 { return codecSum(o, key, false) })
		for _, o := range t.ops {
			for _, c := range o.codecs {
				if c.key == key && c.comp && c.ratio > 0 {
					logs = append(logs, math.Log(c.ratio))
				}
			}
		}
		r := 0.0
		if len(logs) > 0 {
			var s float64
			for _, l := range logs {
				s += l
			}
			r = math.Exp(s / float64(len(logs)))
		}
		m["compress."+key+".compress_ms"] = metric{comp, "ms"}
		m["compress."+key+".decompress_ms"] = metric{dec, "ms"}
		m["compress."+key+".ratio"] = metric{r, "ratio"}
	}
	// Analysis time of a measure op: per field, from the op's start to
	// its first codec call (MeasureFieldSet analyzes a field before it
	// sweeps the codecs), summed over fields.
	analyze := func(o *opTrace) float64 {
		var s time.Duration
		for _, t := range o.firstCodec {
			s += t.Sub(o.start)
		}
		return ms(s)
	}
	codecTotal := func(o *opTrace) float64 {
		var s time.Duration
		for _, c := range o.codecs {
			s += c.dur
		}
		return ms(s)
	}
	m["core.analyze_ms"] = metric{per(analyze), "ms"}
	for k, unit := range serveLayerKeys {
		m[k] = metric{0, unit}
	}
	m["core.codec_share"] = metric{per(func(o *opTrace) float64 {
		a, c := analyze(o), codecTotal(o)
		if a+c == 0 {
			return 0
		}
		return c / (a + c)
	}), "ratio"}
	return m
}

func codecSum(o *opTrace, key string, comp bool) float64 {
	var s time.Duration
	for _, c := range o.codecs {
		if c.key == key && c.comp == comp {
			s += c.dur
		}
	}
	return ms(s)
}

// printShares prints the traffic check: where an op's time went,
// measured, next to the split the ROADMAP's profile predicts.
func printShares(name string, m map[string]metric) {
	g, l, s := m["variogram.global_cpu_share"].Value, m["variogram.local_cpu_share"].Value, m["svdstat.window_cpu_share"].Value
	if g+l+s > 0 {
		fmt.Printf("%s: share of process CPU per op: local range %.1f%%, svd %.1f%%, global variogram %.1f%% (ROADMAP pprof split: 43/41/9)\n",
			name, 100*l, 100*s, 100*g)
	}
	if c := m["core.codec_share"].Value; c > 0 {
		fmt.Printf("%s: codec share %.1f%%, analysis share %.1f%% of codec+analysis time per op\n",
			name, 100*c, 100*(1-c))
	}
}
