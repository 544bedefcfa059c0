package fft

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator for test fields (no xrand
// dependency from inside the fft package).
type lcg uint64

func (r *lcg) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64(uint32(*r>>32))/float64(1<<32) - 0.5
}

// TestRealND32RoundTrip pins InverseRealND(ForwardRealND(x)) == x
// to float32 roundoff across pow2, mixed-radix, Bluestein, and odd
// last-axis extents, at several worker counts.
func TestRealND32RoundTrip(t *testing.T) {
	shapes := [][]int{
		{16}, {30}, {13}, {8, 8}, {12, 10}, {7, 11}, {6, 9}, {4, 6, 10}, {5, 7, 13},
	}
	for _, dims := range shapes {
		total := 1
		for _, d := range dims {
			total *= d
		}
		src := make([]float32, total)
		r := lcg(7)
		for i := range src {
			src[i] = float32(r.next())
		}
		var ref []float32
		for _, workers := range []int{1, 3, 8} {
			spec := Acquire[complex64](HalfLen(dims))
			out := make([]float32, total)
			if err := ForwardRealND(src, dims, spec, workers); err != nil {
				t.Fatalf("dims %v: %v", dims, err)
			}
			if err := InverseRealND(spec, dims, out, workers); err != nil {
				t.Fatalf("dims %v: %v", dims, err)
			}
			Release(spec)
			for i := range out {
				if d := math.Abs(float64(out[i] - src[i])); d > 2e-5 {
					t.Fatalf("dims %v workers %d: round-trip error %g at %d", dims, workers, d, i)
				}
			}
			if ref == nil {
				ref = out
			} else {
				for i := range out {
					if out[i] != ref[i] {
						t.Fatalf("dims %v workers %d: nondeterministic element %d", dims, workers, i)
					}
				}
			}
		}
	}
}

// TestForwardRealND32MatchesOracle pins the float32 forward transform
// against the float64 half-spectrum oracle on identical (exactly
// representable) inputs: every bin within a few ulps of the spectrum
// magnitude.
func TestForwardRealND32MatchesOracle(t *testing.T) {
	for _, dims := range [][]int{{24, 18}, {15, 20}, {11, 13}, {6, 10, 12}} {
		total := 1
		for _, d := range dims {
			total *= d
		}
		src32 := make([]float32, total)
		src64 := make([]float64, total)
		r := lcg(11)
		for i := range src32 {
			v := float32(r.next())
			src32[i] = v
			src64[i] = float64(v)
		}
		spec32 := make([]complex64, HalfLen(dims))
		spec64 := make([]complex128, HalfLen(dims))
		if err := ForwardRealND(src32, dims, spec32, 2); err != nil {
			t.Fatal(err)
		}
		if err := ForwardRealND(src64, dims, spec64, 2); err != nil {
			t.Fatal(err)
		}
		var norm float64
		for _, v := range spec64 {
			if a := real(v)*real(v) + imag(v)*imag(v); a > norm {
				norm = a
			}
		}
		norm = math.Sqrt(norm)
		for i := range spec64 {
			dr := float64(real(spec32[i])) - real(spec64[i])
			di := float64(imag(spec32[i])) - imag(spec64[i])
			if err := math.Hypot(dr, di) / norm; err > 1e-5 {
				t.Fatalf("dims %v bin %d: rel error %g vs oracle", dims, i, err)
			}
		}
	}
}

// TestPool32Accounting pins the float32-lane pool byte accounting on
// the shared live/peak scale: a complex64 element charges 8 bytes and
// a float32 element 4.
func TestPool32Accounting(t *testing.T) {
	base := LiveBytes()
	ResetPeakBytes()
	c := Acquire[complex64](1000)
	r := Acquire[float32](1000)
	live := LiveBytes() - base
	want := int64(cap(c))*8 + int64(cap(r))*4
	if live != want {
		t.Fatalf("live bytes %d, want %d", live, want)
	}
	Release(c)
	Release(r)
	if LiveBytes() != base {
		t.Fatalf("live bytes %d after release, want %d", LiveBytes(), base)
	}
	if peak := PeakBytes() - base; peak < want {
		t.Fatalf("peak bytes %d, want >= %d", peak, want)
	}
}

// TestPool32Retention pins the floor-log2 retention contract of the
// float32-lane pools: a released non-power-of-two buffer is found
// again by a same-size acquire.
func TestPool32Retention(t *testing.T) {
	// sync.Pool randomly drops Puts under the race detector, so allow a
	// few attempts, each on drained buckets, before declaring the buffer
	// lost.
	const n = 1600 * 1600
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		for _, b := range []int{acquireBucket(n) - 1, acquireBucket(n)} {
			for pools[0][b].Get() != nil {
			}
		}
		r := Acquire[float32](n)
		p := &r[0]
		Release(r)
		r2 := Acquire[float32](n)
		reused = &r2[0] == p
		Release(r2)
	}
	if !reused {
		t.Fatal("released float32 buffer not reused by same-size acquire")
	}
}
