package compress_test

// Failure-injection tests: every codec must reject (or at worst decode
// wrongly) arbitrarily corrupted streams without panicking, on both
// lanes. Run against every built-in compressor via the core registry.

import (
	"math"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

func testFieldFor(seed uint64, rank int) *field.Field {
	rng := xrand.New(seed)
	f := field.New(24, 31)
	if rank == 3 {
		f = field.New(6, 9, 11)
	}
	for i := range f.Data {
		f.Data[i] = math.Sin(float64(i/f.Shape[rank-1])/4) + 0.2*rng.NormFloat64()
	}
	return f
}

// allCodecs lists every registered codec with the rank it accepts.
func allCodecs() (cs []compress.FieldCompressor, ranks []int) {
	reg := core.DefaultRegistry()
	for _, rank := range []int{2, 3} {
		for _, c := range reg.AllFor(rank) {
			cs = append(cs, c)
			ranks = append(ranks, rank)
		}
	}
	return cs, ranks
}

// decoders returns the codec's stream of f with a decoder, per lane.
func decoders(t *testing.T, c compress.FieldCompressor, f *field.Field, eb float64) (streams [][]byte, decs []func([]byte) error) {
	t.Helper()
	data, err := c.CompressField(f, eb)
	if err != nil {
		t.Fatal(err)
	}
	streams = append(streams, data)
	decs = append(decs, func(b []byte) error { _, err := c.DecompressField(b); return err })
	if l, ok := c.(compress.Lane32Compressor); ok {
		data, err := l.CompressField32(f.Narrow(), eb)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, data)
		decs = append(decs, func(b []byte) error { _, err := l.DecompressField32(b); return err })
	}
	return streams, decs
}

func TestDecompressNeverPanicsOnCorruption(t *testing.T) {
	cs, ranks := allCodecs()
	for i, c := range cs {
		streams, decs := decoders(t, c, testFieldFor(1, ranks[i]), 1e-3)
		t.Run(c.Name(), func(t *testing.T) {
			for lane, data := range streams {
				corrupt(t, data, decs[lane])
			}
		})
	}
}

func corrupt(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	rng := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		bad := append([]byte(nil), data...)
		switch trial % 3 {
		case 0: // flip random bytes
			for k := 0; k < 1+rng.Intn(8); k++ {
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // truncate
			bad = bad[:rng.Intn(len(bad))]
		case 2: // swap a random block
			if len(bad) > 16 {
				i := rng.Intn(len(bad) - 8)
				j := rng.Intn(len(bad) - 8)
				for k := 0; k < 8; k++ {
					bad[i+k], bad[j+k] = bad[j+k], bad[i+k]
				}
			}
		}
		// must not panic; error or garbage output both acceptable
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: decompress panicked: %v", trial, r)
				}
			}()
			_ = decode(bad)
		}()
	}
}

func TestDecompressRandomGarbage(t *testing.T) {
	rng := xrand.New(9)
	cs, ranks := allCodecs()
	for i, c := range cs {
		_, decs := decoders(t, c, testFieldFor(1, ranks[i]), 1e-3)
		for _, decode := range decs {
			for trial := 0; trial < 100; trial++ {
				garbage := make([]byte, rng.Intn(2048))
				for i := range garbage {
					garbage[i] = byte(rng.Uint64())
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: garbage decompress panicked: %v", c.Name(), r)
						}
					}()
					_ = decode(garbage)
				}()
			}
		}
	}
}

func TestCompressRejectsNonFinite(t *testing.T) {
	// NaN/Inf inputs must either roundtrip through the escape path or
	// error — never violate the bound on the finite elements
	vals := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1), 4, 5}
	cs, ranks := allCodecs()
	for i, c := range cs {
		f := field.New(2, 4)
		if ranks[i] == 3 {
			f = field.New(2, 2, 2)
		}
		copy(f.Data, vals)
		data, err := c.CompressField(f, 1e-6)
		if err != nil {
			continue // rejecting non-finite input is acceptable
		}
		dec, err := c.DecompressField(data)
		if err != nil {
			t.Fatalf("%s: decode of non-finite field failed: %v", c.Name(), err)
		}
		for i, v := range f.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if math.Abs(v-dec.Data[i]) > 1e-6*(1+1e-12) {
				t.Fatalf("%s: finite element %d error %v", c.Name(), i, math.Abs(v-dec.Data[i]))
			}
		}
	}
}
