// Command perfbench is lossycorr's end-to-end benchmark. One run
// generates seeded inputs, drives one workload through the public entry
// points (the lossycorr facade, core.MeasureFieldSet, corrcompd's HTTP
// API) for a fixed time, checks every output, and prints its metrics as
// one JSON object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median.
const setupRepeats = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload (README.md says why each was
// chosen).
type workload struct {
	name string
	// newRun builds the inputs of a run from the seed.
	newRun func(seed uint64, out string) (runner, error)
}

// runner is a workload instance with its inputs built.
type runner interface {
	// measure runs the workload for d. With tr non-nil every op is
	// traced into tr.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// layerMetrics adds the workload's own per-layer metrics.
	layerMetrics(p *phase, m map[string]metric)
	close()
}

var workloads = []workload{
	{"analyze", newAnalyze},
	{"spectral", newSpectral},
	{"measure", newMeasure},
	{"serve", newServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		out      = flag.String("out", ".bench_build/perfbench", "directory for trace files and scratch inputs")
		selftest = flag.Bool("selftest", false, "run the layer-discrimination self-test instead of a workload")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	d := time.Duration(*seconds * float64(time.Second))
	if *selftest {
		if err := runSelfTest(*seed, d, *out); err != nil {
			fail(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fail(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
	}
	rep, err := runWorkload(w, *seed, d, *trace == 1, *out)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload sets the workload up setupRepeats times, then measures it
// for d. An untraced run reports the end-to-end metrics. A traced run
// measures d/2 untraced and d/2 traced, reports the per-layer metrics
// of the traced half, and writes its spans to out.
func runWorkload(w workload, seed uint64, d time.Duration, traced bool, out string) (*report, error) {
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		t, s0 := time.Now(), stealMs()
		var err error
		if r, err = w.newRun(seed, out); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		// Net of CPU steal, like the op latencies.
		setups = append(setups, time.Since(t).Seconds()-(stealMs()-s0)/float64(numCPU)/1000)
		// Collect the set-up's garbage so the resident-set peak does
		// not depend on when the collector happened to run.
		runtime.GC()
	}
	defer r.close()
	if !traced {
		p, err := r.measure(d, nil)
		if err != nil {
			return nil, err
		}
		p.print(w.name, "untraced")
		m := map[string]metric{
			"setup_s":       {median(setups), "s"},
			"ok_rate":       {float64(p.attempted-p.failed) / float64(p.attempted), "ratio"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
			"cpu_per_op_ms": {p.cpuPerOp(), "ms"},
			"op_p50_ms":     {p.headP50(), "ms"},
			"op_p90_ms":     {p.tailP90(), "ms"},
			"cr_geomean":    {p.crGeomean(), "ratio"},
		}
		return p.report(m), nil
	}
	base, err := r.measure(d/2, nil)
	if err != nil {
		return nil, err
	}
	base.print(w.name, "untraced")
	tr := newTracer()
	p, err := r.measure(d/2, tr)
	if err != nil {
		return nil, err
	}
	p.print(w.name, "traced")
	m := layerMetrics(tr)
	r.layerMetrics(p, m)
	over := 0.0
	if b := base.headP50(); b > 0 {
		over = p.headP50() / b
	}
	m["trace.overhead_ratio"] = metric{over, "ratio"}
	fmt.Printf("%s: tracing overhead %.4f (traced op_p50_ms %.3f over untraced %.3f)\n",
		w.name, over, p.headP50(), base.headP50())
	printShares(w.name, m)
	path, err := tr.write(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", w.name, tr.spanCount(), path)
	base.attempted += p.attempted
	base.failed += p.failed
	base.failures = append(base.failures, p.failures...)
	return base.report(m), nil
}

// phase is the record of one measured stretch of a workload.
type phase struct {
	wall time.Duration
	lat  []float64 // steal-corrected ms per attempted op; failed ops are +Inf
	// inputs splits lat by input for a closed loop over several inputs.
	inputs [][]float64
	// head and tail are the samples op_p50_ms and op_p90_ms read when
	// they are not lat: on serve, the hits and every request from
	// getting a connection to the response.
	head, tail []float64
	raw        []float64     // wall ms per successful op
	cpu        time.Duration // process CPU spent in the phase's ops
	attempted  int
	failed     int
	failures   []string
	ratios     []float64 // compression ratios seen (measure only)
	notes      []string
	extra      any // workload-specific data for layerMetrics
}

func (p *phase) ok() int { return p.attempted - p.failed }

// tailP90 is op_p90_ms.
func (p *phase) tailP90() float64 {
	if p.tail != nil {
		return quantile(p.tail, 0.9)
	}
	return p.pct(0.9)
}

// headP50 is op_p50_ms. Over several inputs of different cost it is
// the mean of the per-input medians: the median of the pooled ops would
// jump between the inputs' cost levels as the mix shifts by one op.
func (p *phase) headP50() float64 {
	switch {
	case p.head != nil:
		return quantile(p.head, 0.5)
	case len(p.inputs) > 1:
		var s float64
		n := 0
		for _, xs := range p.inputs {
			if len(xs) > 0 {
				s += quantile(xs, 0.5)
				n++
			}
		}
		if n == 0 {
			return failedLatencyMs
		}
		return s / float64(n)
	}
	return p.pct(0.5)
}

// cpuPerOp is the process CPU time per successful op, in ms.
func (p *phase) cpuPerOp() float64 {
	if p.ok() == 0 {
		return failedLatencyMs
	}
	return ms(p.cpu) / float64(p.ok())
}

// record adds one op's outcome: its wall time and the CPU steal summed
// over every CPU while it ran, both in ms; err non-nil marks it failed.
func (p *phase) record(ms, stolen float64, err error) {
	p.attempted++
	if err != nil {
		p.failed++
		p.lat = append(p.lat, math.Inf(1))
		if len(p.failures) < 20 {
			p.failures = append(p.failures, err.Error())
		}
		return
	}
	p.raw = append(p.raw, ms)
	// Steal is counted in 10 ms ticks, so over an op shorter than a tick
	// the estimate can exceed the op; clamping keeps such ops at the
	// bottom of the order without moving any other quantile.
	p.lat = append(p.lat, max(ms-stolen/float64(numCPU), 0))
}

// numCPU is the CPU count /proc/stat's steal total is summed over.
var numCPU = runtime.NumCPU()

// stealMs is the time the hypervisor has stolen from this machine's
// CPUs, summed over CPUs, in ms (the steal column of /proc/stat; 0
// where the kernel does not report it). On a shared VM, steal inflates
// wall time by tens of percent from run to run; op latencies are
// reported net of the steal that fell inside them, spread evenly over
// the CPUs.
func stealMs() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 1000 / clockTicks
}

// clockTicks is USER_HZ, the unit of /proc/stat.
const clockTicks = 100

// pct is the q-quantile of the op latencies, linearly interpolated
// between order statistics. Failed ops sort beyond every success; a
// quantile that lands among them reads as failedLatencyMs.
func (p *phase) pct(q float64) float64 {
	return quantile(p.lat, q)
}

// failedLatencyMs stands in for the latency of a failed op when a
// reported quantile lands on one.
const failedLatencyMs = 1e6

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return failedLatencyMs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	a, b := s[lo], s[hi]
	if math.IsInf(b, 1) {
		return failedLatencyMs
	}
	return a + (b-a)*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile0 is quantile with 0 for an empty sample.
func quantile0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// crGeomean is the geometric-mean compression ratio over every codec
// run of the phase; a workload that runs no codec stores its data as
// is and reads 1.
func (p *phase) crGeomean() float64 {
	if len(p.ratios) == 0 {
		return 1
	}
	var s float64
	for _, r := range p.ratios {
		s += math.Log(r)
	}
	return math.Exp(s / float64(len(p.ratios)))
}

func (p *phase) report(m map[string]metric) *report {
	for _, f := range p.failures {
		fmt.Println("failure:", f)
	}
	if more := p.failed - len(p.failures); more > 0 {
		fmt.Printf("failure: %d more not listed\n", more)
	}
	return &report{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   m,
	}
}

func (p *phase) print(name, mode string) {
	fmt.Printf("%s (%s): %d ops in %.2f s, %d failed, %.3f ops/s; net of steal p50 %.3f ms, p90 %.3f ms; wall p50 %.3f ms, p90 %.3f ms; op_p50_ms %.3f, op_p90_ms %.3f; %.3f CPU ms per op\n",
		name, mode, p.attempted, p.wall.Seconds(), p.failed, float64(p.ok())/p.wall.Seconds(),
		p.pct(0.5), p.pct(0.9), quantile0(p.raw, 0.5), quantile0(p.raw, 0.9), p.headP50(), p.tailP90(), p.cpuPerOp())
	for _, n := range p.notes {
		fmt.Printf("%s (%s): %s\n", name, mode, n)
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
