package compress_test

// Byte pins for every built-in codec. Each cell compresses one
// deterministic input with one codec on one lane at one bound, checks
// the SHA-256 of the stream against a recorded value, decompresses it,
// and checks the reconstruction against the bound. A change to a
// predictor, a transform order, a quantizer, a stream layout or the
// lossless stage moves some pin.
//
// Lanes:
//   - f64: CompressField on the float64 input;
//   - f32: CompressField32 on the input narrowed to float32, for codecs
//     with a native float32 lane;
//   - widen: CompressField on the narrowed input widened back to
//     float64 (the stream RunField32 produces for codecs without a
//     native lane).
//
// Inputs: a mix of smooth and noisy regions (so both SZ predictors and
// ZFP's coded blocks run) on even, odd and clipped shapes and on a
// shape with a 1-wide axis, plus hostile inputs on the first shape of
// each rank: NaN/±Inf samples, a +1e8·σ offset, values near 2^33 where
// summation order shows in the stream, and a bound below ZFP's
// fixed-point floor (which forces raw blocks).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"lossycorr/internal/compress"
	"lossycorr/internal/core"
	"lossycorr/internal/field"
	"lossycorr/internal/xrand"
)

type pinInput struct {
	name string
	f    *field.Field
	ebs  []float64
}

// mixField is a sum of per-axis sinusoids plus noise whose amplitude
// steps up over the second half of the leading axis.
func mixField(seed uint64, shape ...int) *field.Field {
	f := field.New(shape...)
	rng := xrand.New(seed)
	idx := make([]int, len(shape))
	for i := range f.Data {
		v := 0.0
		for k, x := range idx {
			v += math.Sin(0.3*float64(k+1)*float64(x) + float64(k))
		}
		amp := 0.01
		if 2*idx[0] >= shape[0] {
			amp = 0.4
		}
		f.Data[i] = v + amp*rng.NormFloat64()
		for k := len(idx) - 1; k >= 0; k-- {
			if idx[k]++; idx[k] < shape[k] {
				break
			}
			idx[k] = 0
		}
	}
	return f
}

func pinInputs(rank int) []pinInput {
	shapes := [][]int{{33, 17}, {32, 48}, {1, 37}}
	if rank == 3 {
		shapes = [][]int{{9, 20, 7}, {8, 16, 12}, {1, 10, 13}}
	}
	var ins []pinInput
	for i, s := range shapes {
		ins = append(ins, pinInput{"mix-" + shapeName(s), mixField(uint64(10*rank+i), s...), compress.PaperErrorBounds})
	}
	base := shapes[0]

	nonFinite := mixField(uint64(10*rank+7), base...)
	n := len(nonFinite.Data)
	nonFinite.Data[n/7] = math.NaN()
	nonFinite.Data[n/3] = math.Inf(1)
	nonFinite.Data[n/2] = math.Inf(-1)
	nonFinite.Data[n/2+1] = math.NaN()
	ins = append(ins, pinInput{"nonfinite-" + shapeName(base), nonFinite, compress.PaperErrorBounds})

	offset := mixField(uint64(10*rank+8), base...)
	sigma := math.Sqrt(offset.Summary().Variance)
	for i := range offset.Data {
		offset.Data[i] += 1e8 * sigma
	}
	ins = append(ins, pinInput{"offset-" + shapeName(base), offset, compress.PaperErrorBounds})

	// Near 2^33 a float64 ulp (2^-19 ≈ 1.9e-6) is a tenth of the finest
	// quantization bin, so a predictor that sums the same terms in
	// another order moves some residual across a bin edge and the
	// stream changes.
	coarse := mixField(uint64(10*rank+6), base...)
	for i := range coarse.Data {
		coarse.Data[i] += 0x1p33
	}
	ins = append(ins, pinInput{"coarse-" + shapeName(base), coarse, compress.PaperErrorBounds})

	// |x| < 4, so ZFP's floor 2^(emax-50+rank+2) is at least 2^-46 ≈
	// 1.4e-14 on every non-zero block.
	ins = append(ins, pinInput{"floor-" + shapeName(base), mixField(uint64(10*rank+9), base...), []float64{1e-15}})
	return ins
}

func shapeName(s []int) string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = fmt.Sprint(e)
	}
	return strings.Join(parts, "x")
}

// checkBound reports the first element of got outside eb of want; a
// non-finite element must come back with the same bits. The check
// admits one float64 ulp of |want| beyond eb: the float64 lanes add
// the quantized residual to the prediction without a post-add guard,
// and on the offset input that last rounding can land just outside.
func checkBound(want, got []float64, eb float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("decoded %d elements, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) || math.IsInf(w, 0) {
			if math.Float64bits(w) != math.Float64bits(g) {
				return fmt.Errorf("element %d: non-finite %v decoded as %v", i, w, g)
			}
			continue
		}
		if !(math.Abs(w-g) <= eb*(1+1e-12)+math.Abs(w)*0x1p-52) {
			return fmt.Errorf("element %d: |%v - %v| > %g", i, w, g, eb)
		}
	}
	return nil
}

func widen32(d []float32) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v)
	}
	return out
}

// pinCell runs one codec on one lane and returns the stream and the
// bound check's verdict.
func pinCell(c compress.FieldCompressor, lane string, f *field.Field, eb float64) ([]byte, error) {
	if lane == "f32" {
		l := c.(compress.Lane32Compressor)
		n := f.Narrow()
		data, err := l.CompressField32(n, eb)
		if err != nil {
			return nil, err
		}
		dec, err := l.DecompressField32(data)
		if err != nil {
			return nil, err
		}
		if len(dec.Shape) != len(n.Shape) {
			return nil, fmt.Errorf("decoded shape %v, want %v", dec.Shape, n.Shape)
		}
		return data, checkBound(widen32(n.Data), widen32(dec.Data), eb)
	}
	if lane == "widen" {
		f = f.Narrow().Widen()
	}
	data, err := c.CompressField(f, eb)
	if err != nil {
		return nil, err
	}
	dec, err := c.DecompressField(data)
	if err != nil {
		return nil, err
	}
	return data, checkBound(f.Data, dec.Data, eb)
}

func TestCodecPins(t *testing.T) {
	reg := core.DefaultRegistry()
	seen := map[string]bool{}
	var unpinned []string
	for _, rank := range []int{2, 3} {
		for _, c := range reg.AllFor(rank) {
			lanes := []string{"f64", "widen"}
			if _, ok := c.(compress.Lane32Compressor); ok {
				lanes = append(lanes, "f32")
			}
			for _, in := range pinInputs(rank) {
				for _, eb := range in.ebs {
					for _, lane := range lanes {
						key := fmt.Sprintf("%s/%s/%s/%g", c.Name(), lane, in.name, eb)
						data, err := pinCell(c, lane, in.f, eb)
						if err != nil {
							t.Errorf("%s: %v", key, err)
							continue
						}
						sum := sha256.Sum256(data)
						got := hex.EncodeToString(sum[:])
						seen[key] = true
						want, ok := codecPins[key]
						if !ok {
							want, ok = codecPinsNative3D[key]
						}
						if !ok {
							unpinned = append(unpinned, fmt.Sprintf("\t%q: %q,", key, got))
							continue
						}
						if got != want {
							t.Errorf("%s: stream sha256 %s, pinned %s", key, got, want)
						}
					}
				}
			}
		}
	}
	if len(unpinned) > 0 {
		t.Errorf("%d cells have no pin:\n%s", len(unpinned), strings.Join(unpinned, "\n"))
	}
	var lost []string
	for _, pins := range []map[string]string{codecPins, codecPinsNative3D} {
		for key := range pins {
			if !seen[key] {
				lost = append(lost, key)
			}
		}
	}
	sort.Strings(lost)
	if len(lost) > 0 {
		t.Errorf("%d pinned cells no longer run: %v", len(lost), lost)
	}
}

// codecPins were recorded before the codecs were merged into one
// rank- and lane-generic engine per family; every one must hold.
var codecPins = map[string]string{
	"mgard-like/f64/coarse-33x17/0.0001":        "d64eb530621972aa92c88889092acb8b7188037b9eb299bdc075a243f722455c",
	"mgard-like/f64/coarse-33x17/0.001":         "ccb62fc0ae4102df17b5fa5f917910baf8cdefb5f46b02f579521489e611f9f1",
	"mgard-like/f64/coarse-33x17/0.01":          "828f3d7c826726fbedba205f6326f17198134ee472b1719e2e5e094d42b83ceb",
	"mgard-like/f64/coarse-33x17/1e-05":         "8f6dfba523419f2d0671208ff17575daef259401e038d7cd9b50cb28ff798eac",
	"mgard-like/f64/floor-33x17/1e-15":          "a0cc5648f503430d6f34e7f8205d16be3d930a3e90843604650dea035c98b983",
	"mgard-like/f64/mix-1x37/0.0001":            "3bed9fe84808451a33e7ccead8d7b928377c1385e8836b7302bde9a8b4317f5e",
	"mgard-like/f64/mix-1x37/0.001":             "c4f87d8b92cb0c1f6ba6aa8648457cf452dd6e1c435eaf14289f4605f89e7c40",
	"mgard-like/f64/mix-1x37/0.01":              "94fea63dfaa03df0f8e24fb6ea66ea674d3b11d7a26cdb108af0d83223d05f51",
	"mgard-like/f64/mix-1x37/1e-05":             "c4def60856c0e98507a399660bda94598fa33e219ed5cd6002c0892de9f85086",
	"mgard-like/f64/mix-32x48/0.0001":           "f8620e4d0f84f285fe831d2a7b6d261c29311d58f9ec323a92ab93e9a077a3c3",
	"mgard-like/f64/mix-32x48/0.001":            "74060715e98a24ad3b98c5d5816c2285de5e7e66c2f145dff60f937e41e1f227",
	"mgard-like/f64/mix-32x48/0.01":             "0fa2fe5a266644f960e9b6c3ddab0faf88236568a32d2c2f32475fa7a39c2826",
	"mgard-like/f64/mix-32x48/1e-05":            "3edffbdae97f3405a0a9cae3634d85442dc3c70206e3d10df9ff3596463a5b47",
	"mgard-like/f64/mix-33x17/0.0001":           "ffbcfbaaa7ee21019cb5bd5909a65314008498046901512276e65076326f5f5b",
	"mgard-like/f64/mix-33x17/0.001":            "42cc2757d8d48442e6f137ef86ac5eca92134644d36fa856bdab4012bf030907",
	"mgard-like/f64/mix-33x17/0.01":             "eb695c11958e4070cdd9e5e44a1555998e0a5b9e279da486898a26ec373bd498",
	"mgard-like/f64/mix-33x17/1e-05":            "8116e00cb3784c8163e96f4b2eeaf652764b4ca9820b678c80342c32895c587e",
	"mgard-like/f64/nonfinite-33x17/0.0001":     "c52c67fa759eb6e5a7fde9813409e7fd39f557ee1cd255cb5a75f14fc8bc48de",
	"mgard-like/f64/nonfinite-33x17/0.001":      "0da9666792f7ae13f8f3078e5a2f6ce768efea26f6d3c3309caef8d58447a8a1",
	"mgard-like/f64/nonfinite-33x17/0.01":       "918cea4616b2291a9900910bcd78b7a4c4f375c56aad4d03535f2dfdca72ebe4",
	"mgard-like/f64/nonfinite-33x17/1e-05":      "99d3e34023e24e583c3660a116650a60fec0d909f3796e7134bc9c9e7ef89e4f",
	"mgard-like/f64/offset-33x17/0.0001":        "b079b84d3e757c3428530025e1ed2968dd9866d43efe3f6c1299d4ea6824f33b",
	"mgard-like/f64/offset-33x17/0.001":         "e28ae0e435685d21d659dbb9adb53ab0fa09c621dbf8b04bcf47674245e8c137",
	"mgard-like/f64/offset-33x17/0.01":          "b7cad690e4b677d0b13f60bc7c991393e3581ef73ae9df90822e4d99d9dc34cc",
	"mgard-like/f64/offset-33x17/1e-05":         "818b78ebca0aeadbdc8b34713814cb796d200ca1c51a7ff3b2340b742eb8aed2",
	"mgard-like/widen/coarse-33x17/0.0001":      "8f36e197642551ee6996c71042721ce5b98a63a9ccc98f8409ba83e463f77f55",
	"mgard-like/widen/coarse-33x17/0.001":       "7dcfe604b69b7462478eb66c67dd3e1828deb7083eb7e94db8f886c97ec31796",
	"mgard-like/widen/coarse-33x17/0.01":        "63e3fccb1b0154dee3def6112df8e6e68fd5fd87319ecf236766c85d5fa1521f",
	"mgard-like/widen/coarse-33x17/1e-05":       "c22366f2c408a67e3969e5df367f51bb3cbd15b5ed69794aad88456f4f6265f4",
	"mgard-like/widen/floor-33x17/1e-15":        "c75b839aa04a9115040af265e0353bab57dfa77bb32176654ee163539bc3596b",
	"mgard-like/widen/mix-1x37/0.0001":          "342aae692a5dbf8e430bde79b6c2abb257fde41d8c31a995e91c9b7fb35a37c1",
	"mgard-like/widen/mix-1x37/0.001":           "c4f87d8b92cb0c1f6ba6aa8648457cf452dd6e1c435eaf14289f4605f89e7c40",
	"mgard-like/widen/mix-1x37/0.01":            "94fea63dfaa03df0f8e24fb6ea66ea674d3b11d7a26cdb108af0d83223d05f51",
	"mgard-like/widen/mix-1x37/1e-05":           "5b02fdc60a205c6fd794fde51081cb29b73771631e7f9efa2328512c37b9dadf",
	"mgard-like/widen/mix-32x48/0.0001":         "f4e534d4be66ab592ab17cbb0aada40d2d01907db80f7adb56fdc02a6d253c3d",
	"mgard-like/widen/mix-32x48/0.001":          "74060715e98a24ad3b98c5d5816c2285de5e7e66c2f145dff60f937e41e1f227",
	"mgard-like/widen/mix-32x48/0.01":           "0fa2fe5a266644f960e9b6c3ddab0faf88236568a32d2c2f32475fa7a39c2826",
	"mgard-like/widen/mix-32x48/1e-05":          "e5377345857b6e8d21529f0f83ce4684338ae6d94b0a2cbaaba061142634e74c",
	"mgard-like/widen/mix-33x17/0.0001":         "826572781cf59ef88620caa290bf58a4604ba5fe4dab7862d4dd6de64c6c05e9",
	"mgard-like/widen/mix-33x17/0.001":          "42cc2757d8d48442e6f137ef86ac5eca92134644d36fa856bdab4012bf030907",
	"mgard-like/widen/mix-33x17/0.01":           "eb695c11958e4070cdd9e5e44a1555998e0a5b9e279da486898a26ec373bd498",
	"mgard-like/widen/mix-33x17/1e-05":          "97145ffe5b8be81299f0c488d988c4b62b163d07763836e57a632c2aa158a68e",
	"mgard-like/widen/nonfinite-33x17/0.0001":   "62575ac5649feb7baab756549c33dae51645725589e3cc7888cdea9cc1447073",
	"mgard-like/widen/nonfinite-33x17/0.001":    "b0c45efe9fcdbbfccc6bd0fe7622898cd741043cb030e6e7558810922fa08924",
	"mgard-like/widen/nonfinite-33x17/0.01":     "bbfa9088246a743a73e9447e369ddc997a0e968a8c8193b40c6eb675b6135d24",
	"mgard-like/widen/nonfinite-33x17/1e-05":    "668778ef32a243a3af80461815f3a6c1a859b1600bf3f3cdfd65fcf0075fadb4",
	"mgard-like/widen/offset-33x17/0.0001":      "1487d0e1469fef4944d8a49977f9fdf42a111cf321c3e2d2706251fdac7b86bc",
	"mgard-like/widen/offset-33x17/0.001":       "d7723d20fe628784d96f16a785e2ad0ec65802a1e495b185a06c62353e74f745",
	"mgard-like/widen/offset-33x17/0.01":        "2247a97a0cd79909e1aaf0915bd58069a5f129e58330891cc075a185caccbc9d",
	"mgard-like/widen/offset-33x17/1e-05":       "a904a5b55e7d1f48570e47eef42a024550c5cd35536d382eede00553b2348a60",
	"sz-like-3d/f64/coarse-9x20x7/0.0001":       "b173eff653f0d1aabd2c8a4d3c83cb819bdab7cccb2d5cc68c5b5eb835edb99a",
	"sz-like-3d/f64/coarse-9x20x7/0.001":        "238f1db096f5966b0e1cac4f5a13ba7971cefbfb2be68a2d34115dbf8388ee78",
	"sz-like-3d/f64/coarse-9x20x7/0.01":         "3511103479205159998d3ca83fc8fe7c5aac8f810684a00db9763aee93909ee2",
	"sz-like-3d/f64/coarse-9x20x7/1e-05":        "34177e8099c533ffcd0fdaac6374af43b54099498af8813348a67999054ad855",
	"sz-like-3d/f64/floor-9x20x7/1e-15":         "71bcc391239e71b9558bdbf20ca9ca762e619aaab5d22e56f84bad7400e2bda6",
	"sz-like-3d/f64/mix-1x10x13/0.0001":         "0357265fe85e558c77399c55d1be0c5b9acbc730ebb7a337ce5a955ccc74a359",
	"sz-like-3d/f64/mix-1x10x13/0.001":          "58ec0498fcb58841c2b5e951cdd30ea400ee74eb23d85136b47edbf1ea641da2",
	"sz-like-3d/f64/mix-1x10x13/0.01":           "f65504db6256ef5f27ebbe92d639cbe8c3b01d77954c0768359249e54bd28485",
	"sz-like-3d/f64/mix-1x10x13/1e-05":          "c1ca6fa44ff4907c5626dacf71b84aec8d1dac5f0641e45290e752966052c667",
	"sz-like-3d/f64/mix-8x16x12/0.0001":         "15b89740a2735eabe77b5030b52dd126e1121feabfd2376d9cd9dabeefa059b1",
	"sz-like-3d/f64/mix-8x16x12/0.001":          "85ea1c715f554af5aa19c5221eb20ddf504e80705703c1e6951a8fc7d484bc00",
	"sz-like-3d/f64/mix-8x16x12/0.01":           "42a6b5a199d6ba20f4bf72864c7af7c531cf9264b13f22a26525717388eba58f",
	"sz-like-3d/f64/mix-8x16x12/1e-05":          "21f81c8d9b71a3e7d39a7c2a075fb41c4aa1c6940d80d1c1f69e60514523eb62",
	"sz-like-3d/f64/mix-9x20x7/0.0001":          "0c2eafda186568a37cff87790a42acab93744546cd65f539f6f9fcfe7578a5df",
	"sz-like-3d/f64/mix-9x20x7/0.001":           "4dc74587c266e08a0e1ce4b787d41b25511f98ec1d4ae465947758ffd56d5bbc",
	"sz-like-3d/f64/mix-9x20x7/0.01":            "670c2711e2b9f1cdbce6dc5c5a57e13d9c471487ff03224a93686ad9c699e996",
	"sz-like-3d/f64/mix-9x20x7/1e-05":           "96e001e9548d2ce7742b9e6acb9c16024aefa46572a30aad3b5cd3f36b0f2fc7",
	"sz-like-3d/f64/nonfinite-9x20x7/0.0001":    "d1bff43ea5b7a8616a594a0e4b70792655ef3a489752b11e18fd26659ecf09d4",
	"sz-like-3d/f64/nonfinite-9x20x7/0.001":     "d9597a09919a0ed0d929e1c12ad39314fd5cccd4326059caabd5f19409112761",
	"sz-like-3d/f64/nonfinite-9x20x7/0.01":      "220b40776921d4521bbcb77a0d3f2351f9480aeb0e1bd461d174d1bd4a2201b8",
	"sz-like-3d/f64/nonfinite-9x20x7/1e-05":     "ec4f60c401f625ba61f373a9d16aeb00fd88fcbe063fd51351ca7732c8dccd52",
	"sz-like-3d/f64/offset-9x20x7/0.0001":       "ca4c97bd1353cff2e37cd2f4422469465cc6185132f50145687a5212f37516a3",
	"sz-like-3d/f64/offset-9x20x7/0.001":        "c2c535635b71dc857a694883d9de4cbf8125c597a5ed210795b06ed85b94c9ad",
	"sz-like-3d/f64/offset-9x20x7/0.01":         "f8cddcdb924fbd2ae452894f84b26886adc3460fd7226d13530d230b56a9a05c",
	"sz-like-3d/f64/offset-9x20x7/1e-05":        "f8ffb32a742caebaa3913c224881b9363b1916124c57a803028896fa835c49f2",
	"sz-like-3d/widen/coarse-9x20x7/0.0001":     "4987f07a60c0ae89dc843be1aa6255b7aed4180666cbf7a196a524c858593316",
	"sz-like-3d/widen/coarse-9x20x7/0.001":      "3c206bbc995bb8aafa0e2d611150993301f584801a1e5d00d482b6edc7ddc280",
	"sz-like-3d/widen/coarse-9x20x7/0.01":       "e64495c4191c1a0d121cc1e4f828002d1f2c1c3884b879670ffd0a381a3c844e",
	"sz-like-3d/widen/coarse-9x20x7/1e-05":      "1d5e07cd788fd30853c315b4f261b251703c9d052ccae00be7c78595f559916a",
	"sz-like-3d/widen/floor-9x20x7/1e-15":       "f958d982f1944fcacd611a641c424dc8b3c625464da4f5b7307d0980b0e6c4d8",
	"sz-like-3d/widen/mix-1x10x13/0.0001":       "0357265fe85e558c77399c55d1be0c5b9acbc730ebb7a337ce5a955ccc74a359",
	"sz-like-3d/widen/mix-1x10x13/0.001":        "58ec0498fcb58841c2b5e951cdd30ea400ee74eb23d85136b47edbf1ea641da2",
	"sz-like-3d/widen/mix-1x10x13/0.01":         "f65504db6256ef5f27ebbe92d639cbe8c3b01d77954c0768359249e54bd28485",
	"sz-like-3d/widen/mix-1x10x13/1e-05":        "820b9cd572df11c4e7b8f50b278124391e7482f32033bcc23c3637e5ce105cc0",
	"sz-like-3d/widen/mix-8x16x12/0.0001":       "d1677845339d303b41f7714c21463b30d74426dc44e83a205abd66935c9576a6",
	"sz-like-3d/widen/mix-8x16x12/0.001":        "6ef1e63f818065760a0b864fb3c75a4a573ec8b022205da54d2891c90323fdbf",
	"sz-like-3d/widen/mix-8x16x12/0.01":         "85e05f530db2a04bb6ee8fc226e67ada9307dd191a1aab3799f1c545f61b0d2e",
	"sz-like-3d/widen/mix-8x16x12/1e-05":        "0941aae7aa7f809363b6c1a470b57183ae3948304cdca2de7f4e3fd863d6cf43",
	"sz-like-3d/widen/mix-9x20x7/0.0001":        "09d37144dfb55b3786ddbb0632b0e98ed714e0488c833922e1feb01c188efdf8",
	"sz-like-3d/widen/mix-9x20x7/0.001":         "1dc70826332f0d0f6f7854919838b93ce92ecf09e5f787b85139acb1eb28f47e",
	"sz-like-3d/widen/mix-9x20x7/0.01":          "310c02e9be9f21f28faec4d781be09bbfc0615b8109c75a9a6dfb74ca68bc671",
	"sz-like-3d/widen/mix-9x20x7/1e-05":         "ab93fd6b582a0441fe2bd42e320af0a422a5ca5153f38a072a417ae261fa11ec",
	"sz-like-3d/widen/nonfinite-9x20x7/0.0001":  "b1cb877aa528a2fa48a7066b078c9581598c04e9a9c35aa4d863c3a78d714c25",
	"sz-like-3d/widen/nonfinite-9x20x7/0.001":   "9bf409a1f56656febc06cc0ad55465c83047fbd8ced0dd4e93407570f1a4fd5c",
	"sz-like-3d/widen/nonfinite-9x20x7/0.01":    "80a7a56421228fced5c28da4456c8c75aa2158a05fa476567746df9bbb6fc57f",
	"sz-like-3d/widen/nonfinite-9x20x7/1e-05":   "c590a7c11c067a7edfb87dab8f6608475373fecd7a9e5559fd0c175b473a73ea",
	"sz-like-3d/widen/offset-9x20x7/0.0001":     "3282a26631b665378773a8db4fca29ae05bf3b56595e5e743e3f09e21451555a",
	"sz-like-3d/widen/offset-9x20x7/0.001":      "6a598077a6c5b4e6abf33f30da2144598a0612364ea214857f3ed31122746aff",
	"sz-like-3d/widen/offset-9x20x7/0.01":       "0e2f1e51a461aa2cfe73e29b134ebbdf3cfb6cc03324f53f030e80e7c282ff2c",
	"sz-like-3d/widen/offset-9x20x7/1e-05":      "7471eb6b83db3cbe408bb37821c16294c6b4bdb69ff93f87ddce0804a73ecb51",
	"sz-like/f32/coarse-33x17/0.0001":           "c451259d2af120837be5784de8f67752c02c61a00dcd7be4e67140b9f301b05e",
	"sz-like/f32/coarse-33x17/0.001":            "260b33345b52dec6283f5762d29950e24a67b24e86225bd8da8f5aed220144ba",
	"sz-like/f32/coarse-33x17/0.01":             "d1080b73e0ae3ec9845fd976416368b3300a6dd8441f15ef0371d55fe676104d",
	"sz-like/f32/coarse-33x17/1e-05":            "de962d4a3721553f570a9aab1597625ac4dec9f763521ad2e68ec62dfb61ebad",
	"sz-like/f32/floor-33x17/1e-15":             "e47c55bcf11f9009ef879a8ae5952b8329e8eb7b1a892b8e68a14f357b540940",
	"sz-like/f32/mix-1x37/0.0001":               "e65620eb0da0e3f906265aeb43038b87b6fe5b273fc9de7f0c12ca9507cbd122",
	"sz-like/f32/mix-1x37/0.001":                "3c0b730d54c1a2e27c0f3ab8dc9892c8143b1121e302ef4cbe6eb2dae05d455b",
	"sz-like/f32/mix-1x37/0.01":                 "f70cab168ea5005cc791144929f6668b9039a6591586ec232d7d9f755b1a289b",
	"sz-like/f32/mix-1x37/1e-05":                "53f94471a2372be198e53a3bbaa3cc73d4852004234fd13fc2a5bc731f86e02f",
	"sz-like/f32/mix-32x48/0.0001":              "14cbb75394c0c7fa26b13d13a3696f4add170e2514032d67053364c133089c81",
	"sz-like/f32/mix-32x48/0.001":               "3aacc63be70195cbf46beda0243f883c14bacbceac46f4a76211e642bd43a4f6",
	"sz-like/f32/mix-32x48/0.01":                "01066d9a8bceea5d5ccb7284d303338ffabcaf8246efb0a4014352f6a702b5fc",
	"sz-like/f32/mix-32x48/1e-05":               "22a9f62c4516f13d88272a780808e3db1e5ac6fe8fc1e4d739cbeb3bd714aece",
	"sz-like/f32/mix-33x17/0.0001":              "631a6e6c025661929cab8155f0a45e195018eaaf33fea0403362ed76c5578c3c",
	"sz-like/f32/mix-33x17/0.001":               "c11a38b2dbb5e48ea426220424076e82f86373d9d785946eee3d84e84bff14eb",
	"sz-like/f32/mix-33x17/0.01":                "2a988b1f87231953dda8ec7c5227e77ecc87b88444bf154e3124ebe80937ad82",
	"sz-like/f32/mix-33x17/1e-05":               "2f4e0b9a2a74c9061ab2385806bfcfdd032dbe88b0c78aba7b90c270276d643c",
	"sz-like/f32/nonfinite-33x17/0.0001":        "b61c149e730503e2fafc1c445da92629d2eda8ef816de8dc29e6da3ca544e4e3",
	"sz-like/f32/nonfinite-33x17/0.001":         "ad5465304353eb61d25a5697060fd767788b47e52fe4d842dcaf87de6f8812e2",
	"sz-like/f32/nonfinite-33x17/0.01":          "f7f72393a0a6f2750917b986993161df2bdfefe87281035bccd345e7e2045f03",
	"sz-like/f32/nonfinite-33x17/1e-05":         "33e1c113c66193cca787fcdb30d162f18a9285d7e15e3568e8247e2ca350603a",
	"sz-like/f32/offset-33x17/0.0001":           "6ff029bff72c0e24535ac245a33fd7d1dc5477fa56333d64dd2f0cd744ef26e5",
	"sz-like/f32/offset-33x17/0.001":            "b3c7001a884cb2d4b218c44bbd25f1b276c91e148133797d4532a784c9c7013b",
	"sz-like/f32/offset-33x17/0.01":             "3d114949f41da742bfa0852fb8b34c76a5b62577e6f5d9d097c8310f23d117e5",
	"sz-like/f32/offset-33x17/1e-05":            "85d4978a3ad3ef2d267ef6159f363dab80fc225d7992dc20d982f31f5569c471",
	"sz-like/f64/coarse-33x17/0.0001":           "edefb1ff54b28d0f63362803a3aa1ece224e6863f7928547be93e6bd0599b952",
	"sz-like/f64/coarse-33x17/0.001":            "a80229a33e428b6e70ce17bbb61aab9812d037203cd7a1edc686a5ee6bda553c",
	"sz-like/f64/coarse-33x17/0.01":             "c7a649706600b35ce16e27f8a141180d5aec5caf8c7856c0dcfeeb85873099fa",
	"sz-like/f64/coarse-33x17/1e-05":            "7e9ffee786ad83e915f0ffc8a8677c23c802720d3365cc924ce122205e87009a",
	"sz-like/f64/floor-33x17/1e-15":             "73d5e620ac3a6d4f090f6a832607c2aa0eb3dd8bf4f9c1a2022b44bf87346d60",
	"sz-like/f64/mix-1x37/0.0001":               "58d24cc0abe813c1089d92bb8f2e2002a9905f9ee7ec49817f4d2d988e3944ca",
	"sz-like/f64/mix-1x37/0.001":                "8bc444af72b6b585e0f82726eef3a674d490f2767cc3c8b7dac5a32ad16c90b7",
	"sz-like/f64/mix-1x37/0.01":                 "53d010421ce5117023dd6f7b6ee41a40314bfc01ada060b10260dde2d1d83c62",
	"sz-like/f64/mix-1x37/1e-05":                "356d2c5bd76b59945cc8aa053db291938445e90ebc433d42a3ddde0afaebaccb",
	"sz-like/f64/mix-32x48/0.0001":              "e31a8e93a799dd110bcb45197b8bb507e6a65f1c81b27d05382938edc5b1351c",
	"sz-like/f64/mix-32x48/0.001":               "85308b59f77b907022b6e4201a18dda448a0430a240c28434f75590e11817a75",
	"sz-like/f64/mix-32x48/0.01":                "610208321d6a417020a2443d3cae0ab2541f10c91b54a83fa54e28b674c89fcf",
	"sz-like/f64/mix-32x48/1e-05":               "0b4161c289bc86e5bffffa8dd541d3a685ceaa9b419b9450eb1b550f1f529cb7",
	"sz-like/f64/mix-33x17/0.0001":              "ff356d8f5c198490996b47c4abd8ddc363b618451c3c0f7353e3ce7a2b97cdd0",
	"sz-like/f64/mix-33x17/0.001":               "b64321bd74c40a37d3de3ae5c45a3f93791983ed21e584b57ba516aa4ff089a1",
	"sz-like/f64/mix-33x17/0.01":                "d555a52f0be8ded3640d2f05b74f65285519bcc513603cd0938e79515422b9f3",
	"sz-like/f64/mix-33x17/1e-05":               "59d2ec717a2a345d0ee8488908868790e9547ec7307779b8b5a5efa0a15cdab1",
	"sz-like/f64/nonfinite-33x17/0.0001":        "94c3006f69000157bbf45acc1c7f7704b4da1c1043842f3e727710d1b29071d8",
	"sz-like/f64/nonfinite-33x17/0.001":         "29e6101dc0894040cabd8aedd41765359b4cb714880f3b8ab44255bfe82b50f3",
	"sz-like/f64/nonfinite-33x17/0.01":          "1d824c066ade04fa891e80243e4ac50478a9a7434fd624a8f0ebc20d3158180d",
	"sz-like/f64/nonfinite-33x17/1e-05":         "139aead0807644d619331409fcec292d460cf9bc71ecc99bd1875946922b97cd",
	"sz-like/f64/offset-33x17/0.0001":           "cce70aee833f20c82972631b35d1886e99bc2522587e6f718eaea4106c26ec73",
	"sz-like/f64/offset-33x17/0.001":            "09bd77a153234a697b6931c2691e26d2d0d5970793f00914597218749b9f35d1",
	"sz-like/f64/offset-33x17/0.01":             "264282133260b71a09d7d4cf0ff8c39f169b85ad3585fbbc677ad16006737434",
	"sz-like/f64/offset-33x17/1e-05":            "d1331d08aeb703c7b34eb82fccd804c5f32e5d0cc653635b369d540db21e9f44",
	"sz-like/widen/coarse-33x17/0.0001":         "524be75d17b64946dfc5a3daf5c1d08b149a463d3de5ef5bee918bdf71a27ced",
	"sz-like/widen/coarse-33x17/0.001":          "7a4cfe9dc1b96e8cfab9a341ee7413aa26d87667fc6b62b3351ac51e75b89579",
	"sz-like/widen/coarse-33x17/0.01":           "acc8f297c3f5f8dff67f2b741ed271641965bcdf7411cf4b9cc42901e21c1a03",
	"sz-like/widen/coarse-33x17/1e-05":          "de1b9d327f902e7da7bdcd69d84585f98cdce11be1cc7fe59777b0b6186b4fc4",
	"sz-like/widen/floor-33x17/1e-15":           "01ef3aee40f920616ffbc27bb6b032423d556aec59a2c322d8ffd9eb5db6d82d",
	"sz-like/widen/mix-1x37/0.0001":             "58d24cc0abe813c1089d92bb8f2e2002a9905f9ee7ec49817f4d2d988e3944ca",
	"sz-like/widen/mix-1x37/0.001":              "8bc444af72b6b585e0f82726eef3a674d490f2767cc3c8b7dac5a32ad16c90b7",
	"sz-like/widen/mix-1x37/0.01":               "53d010421ce5117023dd6f7b6ee41a40314bfc01ada060b10260dde2d1d83c62",
	"sz-like/widen/mix-1x37/1e-05":              "a0d86e374bd3f25d3e23cdd9e936e14c052d7c50a48f0b5d6328dd6c72d2e18b",
	"sz-like/widen/mix-32x48/0.0001":            "e31a8e93a799dd110bcb45197b8bb507e6a65f1c81b27d05382938edc5b1351c",
	"sz-like/widen/mix-32x48/0.001":             "85308b59f77b907022b6e4201a18dda448a0430a240c28434f75590e11817a75",
	"sz-like/widen/mix-32x48/0.01":              "610208321d6a417020a2443d3cae0ab2541f10c91b54a83fa54e28b674c89fcf",
	"sz-like/widen/mix-32x48/1e-05":             "8b7b7a40f3ac370dca52846cb4decb4c7b5025e3f0e414f387132e595d3fbc8c",
	"sz-like/widen/mix-33x17/0.0001":            "ff356d8f5c198490996b47c4abd8ddc363b618451c3c0f7353e3ce7a2b97cdd0",
	"sz-like/widen/mix-33x17/0.001":             "b64321bd74c40a37d3de3ae5c45a3f93791983ed21e584b57ba516aa4ff089a1",
	"sz-like/widen/mix-33x17/0.01":              "d555a52f0be8ded3640d2f05b74f65285519bcc513603cd0938e79515422b9f3",
	"sz-like/widen/mix-33x17/1e-05":             "5c793e2b25224c8ea11b6ff1267e02c1b1fbc36445f8c87f7e3457555a0974f9",
	"sz-like/widen/nonfinite-33x17/0.0001":      "72ca9f92c68cb3ed534e32d87a912de36148e747032d25b468dc00f243035f42",
	"sz-like/widen/nonfinite-33x17/0.001":       "6f3f1aa74c627836cea8f7b0898beed57a5287c02e623e8f35173f72fd2f43de",
	"sz-like/widen/nonfinite-33x17/0.01":        "a8f5242522ca269803c8ede351074265e40808cf5c0c30b1c4f8c14c9de96b48",
	"sz-like/widen/nonfinite-33x17/1e-05":       "9bef9681b4e333be22d3f703009fd1b819d628c1d899106df2fa3ba1e7fb36de",
	"sz-like/widen/offset-33x17/0.0001":         "7b59e1d26131590626431a024235592ee66a13e939e56812feb3eeee17270048",
	"sz-like/widen/offset-33x17/0.001":          "51c0af6c7fcea6fa0b4311dbefaa424e0924a0f9fd96c17ac85f6644759f9ed5",
	"sz-like/widen/offset-33x17/0.01":           "a46eb2ad8692da1a008c1fc4fa8c209c8b5ce5e2f9e30615e23eece000c94c9d",
	"sz-like/widen/offset-33x17/1e-05":          "f4f8745be382ad84f9fcf22b8ebe01110db53c7343479a9a1c7b43b71899119a",
	"zfp-like-3d/f64/coarse-9x20x7/0.0001":      "53dedc0936c888ee1e7e718ccf703345210fd2bee404c0ac032c384e980915ee",
	"zfp-like-3d/f64/coarse-9x20x7/0.001":       "7c184ea13d50102d79a2f86d93329025c00346b5fa04d1682689603164660d53",
	"zfp-like-3d/f64/coarse-9x20x7/0.01":        "36a15edb35afa39d2afc22210e1d1d94e8d8c588b137e1e73f6d11b949fac120",
	"zfp-like-3d/f64/coarse-9x20x7/1e-05":       "4f1cf1f0a1cf09be4feaaf5e26e2a8a0225657ef50196b2f84ed61ae102ca35a",
	"zfp-like-3d/f64/floor-9x20x7/1e-15":        "18231adfab0a6ad220f2eed1d0e1e775bba4c68acc4724a673c7dc51eabbb0c6",
	"zfp-like-3d/f64/mix-1x10x13/0.0001":        "21ea9fed93b803bb995a571f2c052698249dcff25930191a94aebb6a307f8203",
	"zfp-like-3d/f64/mix-1x10x13/0.001":         "15ebc2003ac50f4d86737c2c9bf087a85e5704930aab83b451a83c9c0f52dc35",
	"zfp-like-3d/f64/mix-1x10x13/0.01":          "56fa2e85e56315ea5dbce25c10cd2d7e6ac00d62ec1a37591efc828d26e110e3",
	"zfp-like-3d/f64/mix-1x10x13/1e-05":         "c7de332480016215cbfbc791985773e53de0eb9f6dfc8d0fa7e4015b30040c4e",
	"zfp-like-3d/f64/mix-8x16x12/0.0001":        "ccf64c49603581006e2731b17210c66818322e78f2b8e1fe07b375bea939a521",
	"zfp-like-3d/f64/mix-8x16x12/0.001":         "c290a953447220c8eac2f1725c7dc6f87a4ad068598383a53f17e8e6974297ee",
	"zfp-like-3d/f64/mix-8x16x12/0.01":          "3e98d96f61171645c139171828981e1c195f13d947548de713d171c3c0ceceff",
	"zfp-like-3d/f64/mix-8x16x12/1e-05":         "1d44380e3e5ebef1a84f2aff5641de3ecc8b6051f288bc7172b6b66a83090d97",
	"zfp-like-3d/f64/mix-9x20x7/0.0001":         "bc12a7a77cb3eeeac47afac2db748eca75657a203952914a46f4efd81f67c003",
	"zfp-like-3d/f64/mix-9x20x7/0.001":          "afdc07ff957fc10a42f31c4d057364c9faa8eb8149f359e999c8127b930d99c1",
	"zfp-like-3d/f64/mix-9x20x7/0.01":           "f396b17adcffc0e614b0188e5ddb87403c145c8c5dcc8a502ede8e4789913592",
	"zfp-like-3d/f64/mix-9x20x7/1e-05":          "2d5ca92376ca038a179b6fe062a9ab97da3ef79ecfa98ff5776c5888fa0726bc",
	"zfp-like-3d/f64/nonfinite-9x20x7/0.0001":   "c76b55719c06c8127f3b9bd2268e404715d3bfbce82ef992033a64b37e1ac45a",
	"zfp-like-3d/f64/nonfinite-9x20x7/0.001":    "9dfbef1eac401d55daf36021d26dae42b62fc21b149f54f693739784e46496da",
	"zfp-like-3d/f64/nonfinite-9x20x7/0.01":     "3744eb7a7b6ab36c4f9f413ea554d1a5d2cc8bd2c3775d9527b99c9f2b23d3a4",
	"zfp-like-3d/f64/nonfinite-9x20x7/1e-05":    "70e08803be6d1e1dc8dd319af5f7cbd836330b13e58f78f109c8d69856122467",
	"zfp-like-3d/f64/offset-9x20x7/0.0001":      "23078037e853ba52c5b823656957bf644315b1e15fcd3751c106163f26bb17e8",
	"zfp-like-3d/f64/offset-9x20x7/0.001":       "e6d0dfe07d09937d27ea57f16874b8c1d074e9086050c0375622150b87471461",
	"zfp-like-3d/f64/offset-9x20x7/0.01":        "04a300e7fa5437ecf16a5d3589318b66adfb3756c6fb94f94d18b20d95d7414b",
	"zfp-like-3d/f64/offset-9x20x7/1e-05":       "715e9bf5e145cd4030329cdd007e42df8eb8a20875d81ff52485bf7f5214b210",
	"zfp-like-3d/widen/coarse-9x20x7/0.0001":    "f3246b33bc7360e373c9cea49d1807c7c6cd0bd29c0eff24205f5bcf10ab2f86",
	"zfp-like-3d/widen/coarse-9x20x7/0.001":     "5f6a5d51bfe2f724e91a58457313c1b8c74f2aee4add7aa38b0e6071f5578112",
	"zfp-like-3d/widen/coarse-9x20x7/0.01":      "477417466cce95f6ba7d56dbf5a1856fffd8b006294e0fd7da5fd4d059f8f046",
	"zfp-like-3d/widen/coarse-9x20x7/1e-05":     "7f90ce6fc6f8a2fe7973995e0ee2d075e2b937386894ecd169ec026ac5ef4ef9",
	"zfp-like-3d/widen/floor-9x20x7/1e-15":      "d0372adeacd2ce852c503eacb6435b237e0a4549aadfad17137cc3935258c934",
	"zfp-like-3d/widen/mix-1x10x13/0.0001":      "21ea9fed93b803bb995a571f2c052698249dcff25930191a94aebb6a307f8203",
	"zfp-like-3d/widen/mix-1x10x13/0.001":       "15ebc2003ac50f4d86737c2c9bf087a85e5704930aab83b451a83c9c0f52dc35",
	"zfp-like-3d/widen/mix-1x10x13/0.01":        "56fa2e85e56315ea5dbce25c10cd2d7e6ac00d62ec1a37591efc828d26e110e3",
	"zfp-like-3d/widen/mix-1x10x13/1e-05":       "dd4cfd25cc8f0c9cb12b02469e8cc17d80b919b4cbc630fad2e8805993673f14",
	"zfp-like-3d/widen/mix-8x16x12/0.0001":      "16a8d153dca04de7956ce001c69ba58709bd359bcbaec1eeeadfc14c095144aa",
	"zfp-like-3d/widen/mix-8x16x12/0.001":       "e356a1a4076383dcfc6e5ad3322963b2f33a8227317924e6fcce7ad2b7133c91",
	"zfp-like-3d/widen/mix-8x16x12/0.01":        "3e98d96f61171645c139171828981e1c195f13d947548de713d171c3c0ceceff",
	"zfp-like-3d/widen/mix-8x16x12/1e-05":       "653d125a8950d74c8e7c477e955fdf6216d355f87690198aceb846cb5cac255b",
	"zfp-like-3d/widen/mix-9x20x7/0.0001":       "2dd26ff36dede1c8740ef88ca10cce9d597b589eaac00e0c61a374561023179d",
	"zfp-like-3d/widen/mix-9x20x7/0.001":        "578ebb462ef663455c6e023c536c127761b6034252c0849887f0b1eff19d4e5c",
	"zfp-like-3d/widen/mix-9x20x7/0.01":         "f396b17adcffc0e614b0188e5ddb87403c145c8c5dcc8a502ede8e4789913592",
	"zfp-like-3d/widen/mix-9x20x7/1e-05":        "77b0b357e74057b1e44e3c385ca5478a4eebb73eead0f23324bdac95efcd85e5",
	"zfp-like-3d/widen/nonfinite-9x20x7/0.0001": "aba2b5ad09154004db903536a34dbfe1a41c025ab0c029d722dcc05c9b68a31c",
	"zfp-like-3d/widen/nonfinite-9x20x7/0.001":  "f865c5d68324987e88ded33f66a8c7a64929f58deb9dd6427b14d694f0998ef0",
	"zfp-like-3d/widen/nonfinite-9x20x7/0.01":   "79f4c8e0a4fc34fca9fa03ea30c1f09439db311385280a0c8a64cd5689601c08",
	"zfp-like-3d/widen/nonfinite-9x20x7/1e-05":  "82c2f57d9532824ac76edc395823c5ba118bef08b213e94a47d7ed162f7917fb",
	"zfp-like-3d/widen/offset-9x20x7/0.0001":    "ac34699ee9b71c0323738053477041f8e6947ce022d283e09450a75cbe231bab",
	"zfp-like-3d/widen/offset-9x20x7/0.001":     "35f1aae3e781699a1a1982063d57c42967a379996cc5824fb6bb550248825d85",
	"zfp-like-3d/widen/offset-9x20x7/0.01":      "c99027efc0d1d2785da5384658f96b597af97d781224ced2e5d4091b9cfc1feb",
	"zfp-like-3d/widen/offset-9x20x7/1e-05":     "60dd9fe2bc35aae9dd165d03a94c22fc21bda3e03f4904c14ad92832c3a6eef2",
	"zfp-like/f32/coarse-33x17/0.0001":          "aa8c9471a00d5fdc56da9961318e2bf92c8abde7f702a4ebde09a8456bf470a3",
	"zfp-like/f32/coarse-33x17/0.001":           "7abd951feb5f2fcd1f54fea5196f9f9a1cf99b76001d1d6c8156d73cdb1296b3",
	"zfp-like/f32/coarse-33x17/0.01":            "72da903bc3107461cec52ff443176af9cccf78016413e235ea79f4f9110c2225",
	"zfp-like/f32/coarse-33x17/1e-05":           "b3cc28b76bb4d07fc413096c7298408193696e8edbf22fa96cfff39c9a6c3f28",
	"zfp-like/f32/floor-33x17/1e-15":            "3b9e18cadef59e04b1feb7afd2920408088965597399fb02a17c38f66a93c0ea",
	"zfp-like/f32/mix-1x37/0.0001":              "6fd4d21f100db9e2a0ecb68cda6bdee552d32a92944a69f1f8b510e8d8e9a558",
	"zfp-like/f32/mix-1x37/0.001":               "fb9608f8b02034258440a380971975b459e2a74b97dedca26c5ee773d25ff1aa",
	"zfp-like/f32/mix-1x37/0.01":                "9b73aa7bbf8890e4c7b0cac329811f3495648e80846a1b4833407e77fe822b70",
	"zfp-like/f32/mix-1x37/1e-05":               "048a121c4dbe020511ae43f0ae7999785f48b3feeb88513a7ba2db19d9e77468",
	"zfp-like/f32/mix-32x48/0.0001":             "581cb8548261fefa9fc75383c46b249ff911ebed194f094b64a1dc747a418f3e",
	"zfp-like/f32/mix-32x48/0.001":              "805d8b2b7a1dd973e6eb479a2e957a51a6714642e832f05710a21098332e3361",
	"zfp-like/f32/mix-32x48/0.01":               "64139ea86d4a492653e44d8ee9410a8d60994cbc7f28c91d6e7b0bd7f3ab18eb",
	"zfp-like/f32/mix-32x48/1e-05":              "f24ab4d89181e59ec3001c22e98a673da1c0cdbd9fe5f86d113c20b1fd545e27",
	"zfp-like/f32/mix-33x17/0.0001":             "18bc7130fedc228ca343fe910b1acdd7b7040e344aa975beb7a8f73f08d312fb",
	"zfp-like/f32/mix-33x17/0.001":              "76d4186a3503502d4132bfbe122bf1915dba76b6a472c20e27824ad9973e2071",
	"zfp-like/f32/mix-33x17/0.01":               "7399184cf321a08af7bcf78bf2bb328ea59d967dcab2a55aca0f68974b69b266",
	"zfp-like/f32/mix-33x17/1e-05":              "6874a3531f2c21f46a1a8370a24307a050e74205285395f5a2e2a81548d40988",
	"zfp-like/f32/nonfinite-33x17/0.0001":       "2afd22d144e3d352a1012752192399270dcb7ff224564de79fb67e4fac555885",
	"zfp-like/f32/nonfinite-33x17/0.001":        "3828b8eea13630b9b3355403c8bbaa489f0cf6f5634741dedde072b772ebc211",
	"zfp-like/f32/nonfinite-33x17/0.01":         "058226b12fc57c0eff7dad914f33f59ac025e1430c5fdfe279f6d7fe3c2d2552",
	"zfp-like/f32/nonfinite-33x17/1e-05":        "27031e91c94758b73f1553cfb6da34d7e433566bfc77a4bc57e342b215cb6409",
	"zfp-like/f32/offset-33x17/0.0001":          "5a6ce76ce5fbf520f299e40f15a591abc747e4fd6701f335cce7df7000dd36d2",
	"zfp-like/f32/offset-33x17/0.001":           "6c088b2a438ea0876dc4041e06e0fc3a7b196bdbb3ffae4b5ba2204fb854f76b",
	"zfp-like/f32/offset-33x17/0.01":            "9e0f573f2ed45a43c600e88efff067f4594c722fdc03d33c5ab7f062b1c1c545",
	"zfp-like/f32/offset-33x17/1e-05":           "d093368075835ef80dd05ea051edbc6ca35e936a48cde6578a93f48a5b74fd0d",
	"zfp-like/f64/coarse-33x17/0.0001":          "530004716c8dbb77eb5ad565a8f46951106be96c1aecdbafa9ffed3cb625ba10",
	"zfp-like/f64/coarse-33x17/0.001":           "b8171b16cc2c3e680121f2c8cfa2821664f24d952db2e684a16c15e190cbaeae",
	"zfp-like/f64/coarse-33x17/0.01":            "2b20f55b90098dd084ac5ae0e60097c9123d5ff854f4ddc83067fd875f9479e3",
	"zfp-like/f64/coarse-33x17/1e-05":           "b9cfec6fcdcd531f43b55c19db777480e3815b405fc66a9a826f1886d27daf48",
	"zfp-like/f64/floor-33x17/1e-15":            "61de4de4d72e5f11f7627994a87ab435ada5e0b5aebe36248d6cfffd2192a8f1",
	"zfp-like/f64/mix-1x37/0.0001":              "438892cf20f8c78f13eca135a49b25e619301022f19062d4ed9f9c485677a487",
	"zfp-like/f64/mix-1x37/0.001":               "842451a56e4b659530014ff4acbc34c43d8c877d7ac39382aa23cf2fddc023fe",
	"zfp-like/f64/mix-1x37/0.01":                "0117d5beb49c191576a7a0ac4e7824ecaed5c61185922343e0a9720535d9a687",
	"zfp-like/f64/mix-1x37/1e-05":               "472c0ba76de4c696e212ea740ac02b2f2a8467aa9c3698bd61f23cd866f3579e",
	"zfp-like/f64/mix-32x48/0.0001":             "c44d36ac6a07d7287f7b40e0a9ecdf7584d6a8824088e780f011c45091a5722d",
	"zfp-like/f64/mix-32x48/0.001":              "f95a52cb22426bcc6d4e0fc6152a088fdd5e08bc48352214ae954f335840296e",
	"zfp-like/f64/mix-32x48/0.01":               "bd1c0fe8afbcedb2eccb89b17eda2d946ed9ae725da55654be95ef3e16f73e92",
	"zfp-like/f64/mix-32x48/1e-05":              "50cd3e6e8c72c7c3dd6cdc2420f9af35aae6529cdfd6762f99283c22b67f9f16",
	"zfp-like/f64/mix-33x17/0.0001":             "55a559aefdf3dd2439346a57bca19d6f8cdf250d77331e24afb102706e292211",
	"zfp-like/f64/mix-33x17/0.001":              "387dd91c5ed5466da77f0c7cb0c5d754f78d78bd9516d6bf8d27981ab9979832",
	"zfp-like/f64/mix-33x17/0.01":               "b47994c5dc781076deb51b9d861f9689d390624c269d4393da4d289a42d0426a",
	"zfp-like/f64/mix-33x17/1e-05":              "9d4c59474a9f0742c7ac0ed3617bf969ad62a9d6695c1ba9484e2f639e930780",
	"zfp-like/f64/nonfinite-33x17/0.0001":       "abd5d85d76b213edc2bf937b4569b408e80d866131c703696e55cb25b726a903",
	"zfp-like/f64/nonfinite-33x17/0.001":        "fe111ba5dbac285ded9b45703f07d6f1fc60a3c44027120c5c0072f27aeacb04",
	"zfp-like/f64/nonfinite-33x17/0.01":         "4759f73264ff7f283f60b13032127f83aa9c95f72b72daa1d4b0015f79344eca",
	"zfp-like/f64/nonfinite-33x17/1e-05":        "d68713fae5003a4d1071a1222b53ecd9647adbaa691ee730ac2355baaf3e7bc2",
	"zfp-like/f64/offset-33x17/0.0001":          "8a92f69421c54ee4ee9b35f70eb6120286634edb9d30b5a33d0fcafc600deb52",
	"zfp-like/f64/offset-33x17/0.001":           "fc72ba5ff58d544eb911e3b3cce804b2faac14a936af899f0fc532d62faca0a3",
	"zfp-like/f64/offset-33x17/0.01":            "aca1c170c7ef2e8c6a14dde6a2a4e80e93bda563e63f6e7100a093ee786af8d2",
	"zfp-like/f64/offset-33x17/1e-05":           "76dde766f9607bb71c372b7fdbf437950c245ec8a89d380e5b6b77d801563df6",
	"zfp-like/widen/coarse-33x17/0.0001":        "4a95c2670096b21112b2dd8ebe52dd516a132aa608f35414db79c456f3eefa89",
	"zfp-like/widen/coarse-33x17/0.001":         "45336960f9d11fc00097130283f3716bfa9c5bd2fedb36b6366050a9b88bc3fb",
	"zfp-like/widen/coarse-33x17/0.01":          "1422363a4d7ae77f42f923a6dbc1f1e5fc57a12c0ae92c3f765cb43a36823cf0",
	"zfp-like/widen/coarse-33x17/1e-05":         "b0757c04e50d21b2116bc19fbfa5c0f1aff18043b36d3ba67a140acd4a6a1d40",
	"zfp-like/widen/floor-33x17/1e-15":          "c76cc00d3a539adca22839218b6076e83fa251b9c68fae434aed16010b2234f9",
	"zfp-like/widen/mix-1x37/0.0001":            "438892cf20f8c78f13eca135a49b25e619301022f19062d4ed9f9c485677a487",
	"zfp-like/widen/mix-1x37/0.001":             "842451a56e4b659530014ff4acbc34c43d8c877d7ac39382aa23cf2fddc023fe",
	"zfp-like/widen/mix-1x37/0.01":              "0117d5beb49c191576a7a0ac4e7824ecaed5c61185922343e0a9720535d9a687",
	"zfp-like/widen/mix-1x37/1e-05":             "472c0ba76de4c696e212ea740ac02b2f2a8467aa9c3698bd61f23cd866f3579e",
	"zfp-like/widen/mix-32x48/0.0001":           "1d7829132082801983512e932fd3af2022f39348c94526957f8ed8c9a347657e",
	"zfp-like/widen/mix-32x48/0.001":            "f95a52cb22426bcc6d4e0fc6152a088fdd5e08bc48352214ae954f335840296e",
	"zfp-like/widen/mix-32x48/0.01":             "bd1c0fe8afbcedb2eccb89b17eda2d946ed9ae725da55654be95ef3e16f73e92",
	"zfp-like/widen/mix-32x48/1e-05":            "e7f7df543aee747653827b72b974c99867bcdfbe1a4b15d93cd7b19bb8035561",
	"zfp-like/widen/mix-33x17/0.0001":           "55a559aefdf3dd2439346a57bca19d6f8cdf250d77331e24afb102706e292211",
	"zfp-like/widen/mix-33x17/0.001":            "387dd91c5ed5466da77f0c7cb0c5d754f78d78bd9516d6bf8d27981ab9979832",
	"zfp-like/widen/mix-33x17/0.01":             "b47994c5dc781076deb51b9d861f9689d390624c269d4393da4d289a42d0426a",
	"zfp-like/widen/mix-33x17/1e-05":            "b75ff835cfebb70ff803baddbea2a529dc382e30f9b8eff3b6a1313ebf6c3268",
	"zfp-like/widen/nonfinite-33x17/0.0001":     "b9c00b700f33d62942476c65a89fa38310d68ebb817b309f9426a1015af64e08",
	"zfp-like/widen/nonfinite-33x17/0.001":      "3d20c172660dc922b0e34c6e69cc079a9d20ea8500e4c3705587140c434036a8",
	"zfp-like/widen/nonfinite-33x17/0.01":       "5d577b5b15396c84adc28982bb472b706f2ada795864abe0c97ca2dba0526ac0",
	"zfp-like/widen/nonfinite-33x17/1e-05":      "ca08ede247585ff287b75278c13d4790fc999b67062e99dbef4dff918ab56555",
	"zfp-like/widen/offset-33x17/0.0001":        "b04b6a23be16ab1e19a998dbea013ea8f8b875c77acde0fd66ee15e01e8e24f6",
	"zfp-like/widen/offset-33x17/0.001":         "3f5dbba265fbe69efe0f647517d1294595fc40f6d2fea398a75aa9846fb43082",
	"zfp-like/widen/offset-33x17/0.01":          "4976cf7194fbc46c85e48529c0467a6f1be6a2156991c8b356b854c667bc897b",
	"zfp-like/widen/offset-33x17/1e-05":         "8b787229fede6bf5eee4b4c3989aaf404c66a3c9b6baa86345faefb2dc1f57c1",
}

// codecPinsNative3D are new cells: the 3D codecs' native float32 lane,
// recorded when that lane was added (before it, a float32 volume went
// through the widen lane, whose pins above still hold).
var codecPinsNative3D = map[string]string{
	"sz-like-3d/f32/coarse-9x20x7/0.0001":     "332b69f9102a944dd1bbf8a136d240c72dfe2cdc7683b48425299acf41d300fa",
	"sz-like-3d/f32/coarse-9x20x7/0.001":      "fec0a9cf5f50238eda552294a8c68629df7d979352f79c72bd07ff345bceb2e6",
	"sz-like-3d/f32/coarse-9x20x7/0.01":       "29c13ca2216896ac2555c6cd3ea6d81a14a5200afd96d3493438fb354faeca65",
	"sz-like-3d/f32/coarse-9x20x7/1e-05":      "e0380242c7655f5078a1b4530f8aac59304dabcea0d6ba66a9f47847faad40eb",
	"sz-like-3d/f32/floor-9x20x7/1e-15":       "35c09f1e507c51f3a8a38e70c153f0f17234175d3bab2e7e71ca5f569d015117",
	"sz-like-3d/f32/mix-1x10x13/0.0001":       "5d8b8731ac863732a298eb5dfce1e31583d01c6013fe3dd380f3163eb7b98d19",
	"sz-like-3d/f32/mix-1x10x13/0.001":        "4dded5a01810cffcc5db5364e52277add596fbb0d11574fc8ffa17a13e2fdc2f",
	"sz-like-3d/f32/mix-1x10x13/0.01":         "aed003348ee56611a56b190aa4bb597488fc6ffae8e384e4b98354228dec76a2",
	"sz-like-3d/f32/mix-1x10x13/1e-05":        "a8c144acbe501c46cff8f3d341863ec27ffdda6ec63f921229ff90806f8c696d",
	"sz-like-3d/f32/mix-8x16x12/0.0001":       "1e4dce0cdf9c2b416ace5cdf7a6065e19d270a8a79b9a178ad1c1c11e6afdfb8",
	"sz-like-3d/f32/mix-8x16x12/0.001":        "2447f5f6240550a24bc101bdf7306258acb60f798688c8cffdd25bfb8fd03c47",
	"sz-like-3d/f32/mix-8x16x12/0.01":         "0c70d5378d4f7ca4ebbfeb3dc685287a9c1e0449e9e64191d5ca89bd5ced01cb",
	"sz-like-3d/f32/mix-8x16x12/1e-05":        "b71369d57e44d15d3e8bbda215b57d4f04b11c7dda274dd43dbc089d08877c30",
	"sz-like-3d/f32/mix-9x20x7/0.0001":        "1a508f9608faeda1c0a42d05e07c087ece846f8410154d32d93966523abee97e",
	"sz-like-3d/f32/mix-9x20x7/0.001":         "d4239fa7a543873758c2cb90fc0d3c136ce200e63b272579901fa78042a4acfa",
	"sz-like-3d/f32/mix-9x20x7/0.01":          "650d919e7b8b45a402b95a484e4b2e04cad3ffc82e76513771c8bfe7f97401f7",
	"sz-like-3d/f32/mix-9x20x7/1e-05":         "9c79779f4caabc439b4cad4223202d1e79a08be768f776fd1308fb2ea5a3f1ca",
	"sz-like-3d/f32/nonfinite-9x20x7/0.0001":  "336fee22c68ec217ede0c9e2de7149e1beed8b1254fc335a4a27305dbeb63eff",
	"sz-like-3d/f32/nonfinite-9x20x7/0.001":   "43727f19765d87fb2a207d0f26eaf90291bbea98898ee9b72840da617051c5be",
	"sz-like-3d/f32/nonfinite-9x20x7/0.01":    "5a7161febd9f06628dab6bf5795a77b9062cf861f9a75d94854b98dad225f4a6",
	"sz-like-3d/f32/nonfinite-9x20x7/1e-05":   "b186304259a2c8c8b4f0bd6e9ec96f21067fec2e2fb1219f236e7d5dfe9918eb",
	"sz-like-3d/f32/offset-9x20x7/0.0001":     "7499f5efb1d1dd72bf8290cf3083878b08e6b3ff811afa5538a92088ef1fa4ca",
	"sz-like-3d/f32/offset-9x20x7/0.001":      "9de7012146d52d130cd4f6055d00dc083fbb6f3ff391d2c2b2571b138bdc4abe",
	"sz-like-3d/f32/offset-9x20x7/0.01":       "43f3611ffbe8cc22a09d36fb68ac1776f9e07a8a158af237571c65e7f2723ebb",
	"sz-like-3d/f32/offset-9x20x7/1e-05":      "6b4e282786378c2888a34ef6fca2958a941c1bd892643dc0488e032a9a58a140",
	"zfp-like-3d/f32/coarse-9x20x7/0.0001":    "4083698886b8bc3ef19ddf66c701a7b2f7e8b3f23d864c1d4b90fd7c13ec3ae9",
	"zfp-like-3d/f32/coarse-9x20x7/0.001":     "c8c2d6703c02e99bcbb6089bf47fb3ce9a5349b4dd1cd96b76ed44acc0bfa51a",
	"zfp-like-3d/f32/coarse-9x20x7/0.01":      "6bc1876219e286f80094ad1b3fd7307b28912d7a2dc2fc090913e3906c60d794",
	"zfp-like-3d/f32/coarse-9x20x7/1e-05":     "3e905f785d83566a6e3a1a2bc0a7d4ce1a0cd66be1923d0ca8fe0de21d655046",
	"zfp-like-3d/f32/floor-9x20x7/1e-15":      "97cc78719462892a2780f2e012b0ebed07fe19c1de940da7a95b6d50c9da193f",
	"zfp-like-3d/f32/mix-1x10x13/0.0001":      "af92bf8d274e2fc37c7c46b221b4907c5d10aff6073e0fed9f8f25e239861191",
	"zfp-like-3d/f32/mix-1x10x13/0.001":       "8e86f7f08c71ea63e9cbcfa08361d3de3de3b16f9b9e60c1ca5b835547c5801d",
	"zfp-like-3d/f32/mix-1x10x13/0.01":        "86fc50c319b0ae481c5453ef903f9d7d9db83a931d620ee814d3878aab200b4a",
	"zfp-like-3d/f32/mix-1x10x13/1e-05":       "f874ff760d9f6422ac97f47131e640532120b6aa803589baed582811e78777d3",
	"zfp-like-3d/f32/mix-8x16x12/0.0001":      "6727f52120dcfde3888a6479eda77e1235ed6c1ab90c6dbc01eef7ef60c70689",
	"zfp-like-3d/f32/mix-8x16x12/0.001":       "ee502115e0f9385ce678d2ee957769748f04d2181f4d78a247d75ce6b6c1ee21",
	"zfp-like-3d/f32/mix-8x16x12/0.01":        "bc61d1efe648606e94bd6d063f5b41f53ff6d75b5c0b8764f74bf378311cc0e8",
	"zfp-like-3d/f32/mix-8x16x12/1e-05":       "66e748ab03be8b85a936b12126a0fa324daae2df66e187cf7d83cf55e7be53f2",
	"zfp-like-3d/f32/mix-9x20x7/0.0001":       "bf36f6d2eabd5bfbab5bb6bf4a7cb7534411ddff49a6fcf1e4401513c6c2ea42",
	"zfp-like-3d/f32/mix-9x20x7/0.001":        "8330343a7a5a73729360ec6ff77d9ee28382126ad6d506b417ccd3b290535f04",
	"zfp-like-3d/f32/mix-9x20x7/0.01":         "d3fda6b608a5262dbeb93fc5538dd3d923295e6c6fd89c1b26663957bd7648c5",
	"zfp-like-3d/f32/mix-9x20x7/1e-05":        "a4984692652f9a4378325a250e7a49d407d403543e30c943d47eb8ba9fbed2d1",
	"zfp-like-3d/f32/nonfinite-9x20x7/0.0001": "f5c6c6ce41d311edf8f56aaf5c91beed96e72e22d0955251c281157b7c36be2b",
	"zfp-like-3d/f32/nonfinite-9x20x7/0.001":  "5dde7b0c49c538f25b4db9b6875341d69d5f88816cc7f168891b29732951569d",
	"zfp-like-3d/f32/nonfinite-9x20x7/0.01":   "4c2dbf7ca107fa19d49483c801d6e93b832bfb654bc41ca49f8a177e34f0e8f3",
	"zfp-like-3d/f32/nonfinite-9x20x7/1e-05":  "6f09e2c3c4073a0079d414beec27b0fffe6875b36ba0a80de8cd96d092212c05",
	"zfp-like-3d/f32/offset-9x20x7/0.0001":    "4336efb5881c931f5a510bcd7fa1567df67cd9145fe83a7c40b84b46c55db240",
	"zfp-like-3d/f32/offset-9x20x7/0.001":     "03c7b4bcd896327dfc5a1efbe36baa74c344c463d2dfd7315d2c3678b60c4c38",
	"zfp-like-3d/f32/offset-9x20x7/0.01":      "87ce3ae58b19034d4729edb3557f8357a4e0b77995d00647f1f418fafcf49371",
	"zfp-like-3d/f32/offset-9x20x7/1e-05":     "c990e49da56efdea304215afcc5b6a94695243f161fdecb7487408dcddb1764a",
}
