package szlike

import (
	"testing"

	"lossycorr/internal/grid"
	"lossycorr/internal/xrand"
)

// TestRoundTripAllocs pins the zero-allocation work on the measurement
// loop: with the compressor's working set pooled (reconstruction
// mirror, symbol stream, block modes) and the Huffman tree
// slab-allocated, a full-scale 128×128 round trip sits well under 400
// allocations. The pre-pooling pipeline spent ~5000 on the same input
// (one per Huffman tree node alone), so the bound has wide headroom
// against environment noise yet catches any regression to per-node or
// per-call allocation.
func TestRoundTripAllocs(t *testing.T) {
	rng := xrand.New(3)
	g := grid.New(128, 128)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	c := gridCodec{}
	if _, err := c.Compress(g, 1e-3); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		data, err := c.Compress(g, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompress(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 400 {
		t.Fatalf("round trip allocates %v per op, want <= 400", allocs)
	}
}
