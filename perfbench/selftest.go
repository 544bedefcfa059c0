package main

// The layer-discrimination self-test: a delay injected through one
// layer's wrapper must move the workloads that exercise that layer by
// more than the metric's bound and leave the workloads that bypass it
// within the bound. Run it with
//
//	bash perfbench/run.sh -selftest -seed 1 -seconds 8

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

const (
	// svdDelay is spun before every SVD window evaluation.
	svdDelay = time.Millisecond
	// codecDelay is spun before every compress call.
	codecDelay = 60 * time.Millisecond
)

// e2eBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory.
func e2eBounds() (map[string]float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// arm measures r for d with every wrapper active and the given delay
// injected at layer ("" for none), and returns the op median.
func arm(r runner, d time.Duration, layer string, delay time.Duration) (float64, error) {
	if layer != "" {
		theProbe.delay.Store(layer, delay)
		defer theProbe.delay.Delete(layer)
	}
	p, err := r.measure(d, newTracer())
	if err != nil {
		return 0, err
	}
	name := "baseline"
	if layer != "" {
		name = layer + " delayed"
	}
	p.print("selftest", name)
	if p.failed > 0 {
		return 0, fmt.Errorf("%d of %d ops failed: %v", p.failed, p.attempted, p.failures)
	}
	return p.headP50(), nil
}

func runSelfTest(seed uint64, d time.Duration, out string) error {
	bounds, err := e2eBounds()
	if err != nil {
		return err
	}
	bound := bounds["op_p50_ms"]
	if bound <= 0 {
		return fmt.Errorf("BENCHMARK.json has no bound for op_p50_ms")
	}
	type check struct {
		workload, layer string
		delay           time.Duration
		moves           bool
	}
	checks := []check{
		{"analyze", "svdstat.window", svdDelay, true},
		{"spectral", "svdstat.window", svdDelay, false},
		{"measure", "compress", codecDelay, true},
		{"analyze", "compress", codecDelay, false},
	}
	runners := map[string]runner{}
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()
	failed := 0
	for _, c := range checks {
		r, ok := runners[c.workload]
		if !ok {
			w, _ := findWorkload(c.workload)
			if r, err = w.newRun(seed, out); err != nil {
				return err
			}
			runners[c.workload] = r
		}
		// The delayed arm is bracketed by two baseline arms, so a drift
		// of the machine's speed over the check cancels to first order.
		var arms [3]float64
		for i, delay := range []time.Duration{0, c.delay, 0} {
			layer := c.layer
			if delay == 0 {
				layer = ""
			}
			if arms[i], err = arm(r, d, layer, delay); err != nil {
				return fmt.Errorf("%s, %s delay %v: %w", c.workload, c.layer, delay, err)
			}
		}
		base := (arms[0] + arms[2]) / 2
		change := arms[1]/base - 1
		moved := change > bound
		verdict := "PASS"
		if moved != c.moves || (!c.moves && change < -bound) {
			verdict = "FAIL"
			failed++
		}
		want := "within"
		if c.moves {
			want = "beyond"
		}
		fmt.Printf("selftest %s: %s, %s delayed %v: op_p50_ms %.3f -> %.3f ms (%+.1f%%, want %s the %.0f%% bound)\n",
			verdict, c.workload, c.layer, c.delay, base, arms[1], 100*change, want, 100*bound)
	}
	if failed > 0 {
		return fmt.Errorf("layer-discrimination self-test: %d of %d checks failed", failed, len(checks))
	}
	fmt.Printf("layer-discrimination self-test: all %d checks passed\n", len(checks))
	return nil
}
