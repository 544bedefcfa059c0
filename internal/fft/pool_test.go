package fft

import "testing"

// TestPoolAcceptsNonPow2Caps pins the release contract: buffers whose
// capacity is not a power of two (Bluestein scratch, re-sliced tails)
// are filed by floor(log2(cap)) instead of being dropped, and keep
// serving any request up to the bucket's lower bound.
func TestPoolAcceptsNonPow2Caps(t *testing.T) {
	drainComplexBucket := func(b int) {
		for pools[3][b].Get() != nil {
		}
	}
	// cap 768 lands in bucket 9 ([512, 1024)) and must serve n <= 512.
	// sync.Pool randomly drops Puts under the race detector, so allow a
	// few attempts before declaring the buffer lost.
	reused := false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		drainComplexBucket(9)
		Release(make([]complex128, 768))
		got := Acquire[complex128](500)
		reused = cap(got) == 768
		if reused {
			Release(got)
		}
	}
	if !reused {
		t.Fatal("non-pow2 released complex buffer was never reused")
	}

	// The same for the real pool.
	reused = false
	for attempt := 0; attempt < 20 && !reused; attempt++ {
		for pools[1][9].Get() != nil {
		}
		Release(make([]float64, 700))
		rgot := Acquire[float64](512)
		reused = cap(rgot) == 700
		if reused {
			Release(rgot)
		}
	}
	if !reused {
		t.Fatal("non-pow2 released real buffer was never reused")
	}

	// A request larger than a bucket's guarantee must never receive a
	// buffer that cannot hold it: n=769 looks in bucket 10, not 9.
	Release(make([]complex128, 768))
	big := Acquire[complex128](769)
	if cap(big) < 769 {
		t.Fatalf("acquired buffer too small: cap %d for n=769", cap(big))
	}
	Release(big)
}

// TestPoolPeakBytes checks the live/peak accounting of checked-out
// buffers that the memory smoke tests and bench gauges read.
func TestPoolPeakBytes(t *testing.T) {
	base := LiveBytes()
	ResetPeakBytes()
	a := Acquire[complex128](1024) // 16 KiB
	b := Acquire[float64](1024)    // 8 KiB
	wantLive := int64(cap(a))*16 + int64(cap(b))*8
	if got := LiveBytes() - base; got != wantLive {
		t.Fatalf("live %d, want %d", got, wantLive)
	}
	Release(a)
	Release(b)
	if got := LiveBytes(); got != base {
		t.Fatalf("live after release %d, want %d", got, base)
	}
	if peak := PeakBytes() - base; peak < wantLive {
		t.Fatalf("peak %d, want >= %d", peak, wantLive)
	}
	ResetPeakBytes()
	if peak := PeakBytes(); peak != LiveBytes() {
		t.Fatalf("peak after reset %d, want live %d", peak, LiveBytes())
	}
}
