package fft

// Rank-generic transforms and the shared buffer pools. The ND
// transform is the numerical engine of the variogram FFT fast path: one
// axis pass per dimension, each pass sharing a single twiddle table and
// fanning its (independent) lines out over the process-wide worker
// pool. Lines along the last axis are contiguous and transform in
// place; other axes gather each strided line into a per-span scratch.

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"lossycorr/internal/parallel"
)

// The buffer pools bucket reusable slices by capacity so the repeated
// large scratch buffers of the variogram FFT engine and the samplers
// are recycled instead of re-allocated per call. Each element type has
// its own bucket array; the live/peak byte accounting is shared, so
// the memory gauges compare lanes on one scale (a complex64 element
// charges 8 bytes, a float32 element 4 — the float32 lane's ~2×
// bandwidth saving).
//
// Bucket contract: bucket b holds buffers whose capacity lies in
// [2^b, 2^(b+1)) — Release files by floor(log2(cap)), so buffers with
// non-power-of-two capacities (exact-size allocations, Bluestein
// scratch, re-sliced tails) are retained rather than dropped. Acquire
// first pops the ceil(log2(n)) bucket, whose buffers all fit by
// construction, then tries the floor bucket below it with an explicit
// fit check (returning a too-small buffer to its bucket), and only
// then allocates — at exactly the requested length, not the next power
// of two, so a half-spectrum never drags a 2× capacity behind it and a
// re-acquired same-size buffer is found one bucket down.
var pools [4][64]sync.Pool // float32, float64, complex64, complex128

// poolOf returns T's bucket array and element size in bytes.
func poolOf[T Scalar]() (*[64]sync.Pool, int64) {
	switch any((*T)(nil)).(type) {
	case *float32:
		return &pools[0], 4
	case *float64:
		return &pools[1], 8
	case *complex64:
		return &pools[2], 8
	case *complex128:
		return &pools[3], 16
	}
	panic("fft: no pool for a named element type")
}

// Live/peak accounting of acquired (checked-out) pool bytes. This is
// the transform-buffer working set of whatever engine is running — the
// number the memory smoke tests and the bench gauges report.
var (
	poolLiveBytes atomic.Int64
	poolPeakBytes atomic.Int64
)

func accountAcquire(bytes int64) {
	l := poolLiveBytes.Add(bytes)
	for {
		p := poolPeakBytes.Load()
		if l <= p || poolPeakBytes.CompareAndSwap(p, l) {
			return
		}
	}
}

// ResetPeakBytes restarts the high-water mark of checked-out pool
// bytes at the current live level.
func ResetPeakBytes() { poolPeakBytes.Store(poolLiveBytes.Load()) }

// PeakBytes returns the high-water mark of simultaneously checked-out
// pool bytes (all element types) since the last ResetPeakBytes.
func PeakBytes() int64 { return poolPeakBytes.Load() }

// LiveBytes returns the currently checked-out pool bytes.
func LiveBytes() int64 { return poolLiveBytes.Load() }

// acquireBucket is ceil(log2(n)): every buffer filed in this bucket has
// capacity >= 2^bucket >= n.
func acquireBucket(n int) int { return bits.Len(uint(n - 1)) }

// releaseBucket is floor(log2(c)): the largest bucket whose fit
// guarantee capacity c can honor.
func releaseBucket(c int) int { return bits.Len(uint(c)) - 1 }

// Acquire returns a []T of length n (contents unspecified) from T's
// pool, allocating exactly n on a miss. Release it with Release.
func Acquire[T Scalar](n int) []T { return acquire[T](n, false) }

// AcquireTight is Acquire for budget-critical consumers: a pooled
// buffer is accepted only when its capacity is at most 2n, so the
// cap-based accounting of a tight acquisition never exceeds twice the
// requested bytes (a plain acquire can carry up to ~4× from bucket
// slack; a miss allocates exactly n either way). The streaming
// analysis plans its tiles and shards against half the memory budget;
// together the two factors keep the peak gauge under the budget even
// on a warm pool. Release with Release as usual.
func AcquireTight[T Scalar](n int) []T { return acquire[T](n, true) }

func acquire[T Scalar](n int, tight bool) []T {
	if n <= 0 {
		return nil
	}
	pool, size := poolOf[T]()
	take := func(p *[]T) []T {
		accountAcquire(int64(cap(*p)) * size)
		return (*p)[:n]
	}
	b := acquireBucket(n)
	if v := pool[b].Get(); v != nil {
		p := v.(*[]T)
		if !tight || int64(cap(*p)) <= 2*int64(n) {
			return take(p)
		}
		pool[b].Put(p) // too slack for a budgeted consumer; keep it
	}
	if b > 0 {
		if v := pool[b-1].Get(); v != nil {
			p := v.(*[]T)
			if cap(*p) >= n { // one-below caps are < 2^b <= 2n by construction
				return take(p)
			}
			pool[b-1].Put(p) // fits smaller requests; keep it
		}
	}
	buf := make([]T, n)
	return take(&buf)
}

// Release returns a buffer obtained from Acquire or AcquireTight to the
// pool. Buffers of any capacity are accepted (non-power-of-two
// capacities are filed by floor(log2(cap)) and keep serving smaller
// requests). The caller must not use the slice afterwards.
func Release[T Scalar](buf []T) {
	c := cap(buf)
	if c == 0 {
		return
	}
	pool, size := poolOf[T]()
	poolLiveBytes.Add(-int64(c) * size)
	buf = buf[:c]
	pool[releaseBucket(c)].Put(&buf)
}

// ForEachEmbeddedRow visits the contiguous last-dimension runs of a
// srcDims-shaped field embedded in the leading corner of a
// dstDims-shaped buffer, yielding (srcOff, dstOff, n) per run — the
// one odometer walk beneath PadReal and the variogram engine's
// indicator-mask fill. Extents of srcDims must not exceed dstDims.
func ForEachEmbeddedRow(srcDims, dstDims []int, fn func(srcOff, dstOff, n int)) error {
	if len(dstDims) != len(srcDims) {
		return fmt.Errorf("fft: embed rank mismatch %v vs %v", srcDims, dstDims)
	}
	total := 1
	for k, d := range dstDims {
		if srcDims[k] > d {
			return fmt.Errorf("fft: embed extent %d exceeds padded extent %d", srcDims[k], d)
		}
		total *= srcDims[k]
	}
	nd := len(srcDims)
	if nd == 0 || total == 0 {
		return nil
	}
	// Destination strides.
	strides := make([]int, nd)
	acc := 1
	for k := nd - 1; k >= 0; k-- {
		strides[k] = acc
		acc *= dstDims[k]
	}
	inner := srcDims[nd-1]
	outer := make([]int, nd-1)
	srcOff := 0
	for {
		dstOff := 0
		for k := 0; k < nd-1; k++ {
			dstOff += outer[k] * strides[k]
		}
		fn(srcOff, dstOff, inner)
		srcOff += inner
		k := nd - 2
		for ; k >= 0; k-- {
			outer[k]++
			if outer[k] < srcDims[k] {
				break
			}
			outer[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return nil
}

// PadReal zero-fills dst (whose shape is dstDims) and copies the real
// field src (shape srcDims, same rank, extents <= dstDims) into its
// leading corner — the zero-padding step of a linear (non-circular)
// correlation. Rows of the last dimension are copied contiguously.
func PadReal(dst []complex128, dstDims []int, src []float64, srcDims []int) error {
	n := 1
	for _, d := range dstDims {
		n *= d
	}
	if len(dst) != n {
		return fmt.Errorf("fft: pad buffer length %d != product of %v", len(dst), dstDims)
	}
	for i := range dst {
		dst[i] = 0
	}
	return ForEachEmbeddedRow(srcDims, dstDims, func(srcOff, dstOff, n int) {
		for i, v := range src[srcOff : srcOff+n] {
			dst[dstOff+i] = complex(v, 0)
		}
	})
}

// ForwardND computes the in-place unnormalized forward DFT of a
// row-major buffer of any rank and any extents: powers of two run the
// radix-2 core, 7-smooth extents the mixed-radix plan, everything else
// Bluestein. Each axis pass runs its independent lines on the shared
// worker pool (workers <= 0 means GOMAXPROCS); line transforms write
// disjoint regions, so the result is bit-identical at any worker count.
func ForwardND(x []complex128, dims []int, workers int) error {
	return transformND(x, dims, workers, false)
}

// InverseND computes the normalized in-place inverse ND DFT so that
// InverseND(ForwardND(x)) == x.
func InverseND(x []complex128, dims []int, workers int) error {
	if err := transformND(x, dims, workers, true); err != nil {
		return err
	}
	inv := complex(1/float64(len(x)), 0)
	for i := range x {
		x[i] *= inv
	}
	return nil
}

// checkLen validates that every extent is positive and that x holds
// exactly their product.
func checkLen[T any](x []T, dims []int) error {
	n := 1
	for _, d := range dims {
		if d < 1 {
			return fmt.Errorf("fft: extent %d is not positive", d)
		}
		n *= d
	}
	if len(x) != n {
		return fmt.Errorf("fft: buffer length %d != product of %v", len(x), dims)
	}
	return nil
}

func transformND(x []complex128, dims []int, workers int, inverse bool) error {
	if err := checkLen(x, dims); err != nil {
		return err
	}
	for axis := len(dims) - 1; axis >= 0; axis-- {
		axisPass(x, dims, axis, workers, inverse)
	}
	return nil
}

// axisPass transforms every line of x along the given axis. The plan
// (twiddle tables, factorization, chirp filter) is cached per length
// and shared (read-only) by all lines; lines are split into at most
// `workers` contiguous spans so each span needs one scratch buffer, not
// one per line.
func axisPass[C Complex](x []C, dims []int, axis, workers int, inverse bool) {
	d := dims[axis]
	if d <= 1 {
		return
	}
	p := planFor[C](d)
	stride := 1
	for k := axis + 1; k < len(dims); k++ {
		stride *= dims[k]
	}
	lines := len(x) / d
	if axis == len(dims)-1 {
		// Contiguous lines: transform in place.
		parallel.For(lines, workers, func(i int) {
			p.transform(x[i*d:(i+1)*d], inverse)
		})
		return
	}
	// Strided lines: line (o, i) starts at o*d*stride + i, elements
	// stride apart. One scratch per span.
	forLineSpans(lines, workers, d, func(scratch []C, line int) {
		o, i := line/stride, line%stride
		base := o*d*stride + i
		for k := 0; k < d; k++ {
			scratch[k] = x[base+k*stride]
		}
		p.transform(scratch, inverse)
		for k := 0; k < d; k++ {
			x[base+k*stride] = scratch[k]
		}
	})
}

// forLineSpans splits `lines` into at most `workers` contiguous spans
// on the shared pool, hands each span one pooled scratch of length
// scratchLen, and calls fn once per line — the fan-out of every strided
// axis pass and last-axis real<->complex pass. Per-line work is
// independent and span boundaries don't affect arithmetic, so results
// are bit-identical at any worker count.
func forLineSpans[C Complex](lines, workers, scratchLen int, fn func(y []C, line int)) {
	spans := parallel.Resolve(workers, lines)
	per := (lines + spans - 1) / spans
	parallel.For(spans, spans, func(s int) {
		lo, hi := s*per, (s+1)*per
		if hi > lines {
			hi = lines
		}
		if lo >= hi {
			return
		}
		y := Acquire[C](scratchLen)
		defer Release(y)
		for line := lo; line < hi; line++ {
			fn(y, line)
		}
	})
}
