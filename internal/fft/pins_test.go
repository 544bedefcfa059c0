package fft

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// Bit pins of the transform layer. Each case hashes (SHA-256) the IEEE
// bits of a transform's output on a fixed input, so any change to the
// arithmetic of a plan kind, a lane, a direction, or the real-input
// pipeline shows up as a changed digest, not as a drift a tolerance
// would absorb. The digests were recorded from the float32/float64
// twin implementations the lane-generic layer replaced.

// pinLine64 and pinLine32 run one unnormalized line transform of the
// plan cached for len(x).
func pinLine64(x []complex128, inverse bool) { planFor[complex128](len(x)).transform(x, inverse) }
func pinLine32(x []complex64, inverse bool)  { planFor[complex64](len(x)).transform(x, inverse) }

func hashF64(h hash.Hash, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashF32(h hash.Hash, vs ...float32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

func digest128(x []complex128) string {
	h := sha256.New()
	for _, v := range x {
		hashF64(h, real(v), imag(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digest64(x []complex64) string {
	h := sha256.New()
	for _, v := range x {
		hashF32(h, real(v), imag(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestF64(x []float64) string {
	h := sha256.New()
	hashF64(h, x...)
	return hex.EncodeToString(h.Sum(nil))
}

func digestF32(x []float32) string {
	h := sha256.New()
	hashF32(h, x...)
	return hex.EncodeToString(h.Sum(nil))
}

// pinLengths covers each plan kind: radix-2 (16, 1024), mixed 7-smooth
// (60, 840), and Bluestein (127, 1542).
var pinLengths = []int{16, 1024, 60, 840, 127, 1542}

var planPins = map[string]string{
	"f64/n=16/fwd":   "cf5f339562c0f1bc6581b3cb637a6da3aae4560aaf35b45a04879c9a90571ea4",
	"f32/n=16/fwd":   "b54764e9e34764ea9ec6be7cba50705a41ef35aa2d375a685facd34cae2789f9",
	"f64/n=16/inv":   "f075e97732acab99876d8ac973558d8c071aa4e80fa892152916a9e97f8ee7fc",
	"f32/n=16/inv":   "1847dd821e45eee40850342d00903e4a7fb1132e5a972dc7196954f159c5d785",
	"f64/n=1024/fwd": "f5a1f76bd622b167dd795da4eada1c4d66b191557f2a0f68bc1f19fd2ecefd9a",
	"f32/n=1024/fwd": "438f7132ed31994d727de6fb33e1f360d7d8a13e9ee7c2b191720b29f6decf1c",
	"f64/n=1024/inv": "a3fc9e620c76111f6a750415a714bc364e19e63893a8de9ec4848c1563c504fd",
	"f32/n=1024/inv": "b64e6af6bfa3493c4f7b20ad00d0a29f952286e9f5b037e975fa4a1ad9975247",
	"f64/n=60/fwd":   "eaf537ac33808d43b45967f1b2c9d715efd1edeb4bfe8d960fbb467badad95bf",
	"f32/n=60/fwd":   "f93da13fdaa8ab83fb90b1f717c1d257f7ebe3b625b3b3c37ab1a8a770920209",
	"f64/n=60/inv":   "85b2fae6d9851aefba5a5ee8aa83101c3161ef6be40560ba1744c5d5971e5956",
	"f32/n=60/inv":   "03f9e6458d48e1078faa555226a17fb1d46413055ad6d0d7c1ef34d20e6056be",
	"f64/n=840/fwd":  "de3b6113f940271633637527b107031b53c560dd8955bdddc4dfab8fab1384ac",
	"f32/n=840/fwd":  "6c5260bb15f93668801f0d8909235bc923313280fedbd93f24a8855b2c005820",
	"f64/n=840/inv":  "305e3ba8f9624fee19b058bf17f6d7193b8d97e226ce33b935d69a0411d8fdc0",
	"f32/n=840/inv":  "356c92911f60c96f93e6f1694d24c8e0661e8c97bb4a8005234593446ad084f3",
	"f64/n=127/fwd":  "4ecc66ae18ce0ce670147baa6f5dc6ef9b9b0b86d4d075592ad37f63219a9715",
	"f32/n=127/fwd":  "3de80d23c541726853a175d353bd3584d4ce220a069608b8b4e8af4f1529fa47",
	"f64/n=127/inv":  "f567ef000273918ecaa3c3d76e8ffbaf7564bfe2551651c62cf9f983c731463c",
	"f32/n=127/inv":  "5ca28d71e67132f5d4f94bb9d60da86a752a0d308021200205edb35b73d35cab",
	"f64/n=1542/fwd": "d3ebad6ed86597fd984331e8f425ce62a204e4c8155f4ab5a7b44ea1cee47f43",
	"f32/n=1542/fwd": "78bef5c9cc41ee4c518128bd9926d42b42e0114ea09e87575f6cc912b3699ea9",
	"f64/n=1542/inv": "0737109bfe26eff4854c0cb091f8ce96e3a0bec33017984e85236c752c8cfb25",
	"f32/n=1542/inv": "7f1f5a8c120dc82d8d55a30673532e274f0da9f0d3327d4bcefcb87711fdadd7",
}

// TestPlanBitPins pins every plan kind on both lanes, forward and
// inverse, to the recorded output bits.
func TestPlanBitPins(t *testing.T) {
	for _, n := range pinLengths {
		r := lcg(uint64(n))
		x64 := make([]complex128, n)
		x32 := make([]complex64, n)
		for i := range x64 {
			re, im := float32(r.next()), float32(r.next())
			x64[i] = complex(float64(re), float64(im))
			x32[i] = complex(re, im)
		}
		for _, inv := range []bool{false, true} {
			dir := "fwd"
			if inv {
				dir = "inv"
			}
			a := append([]complex128(nil), x64...)
			pinLine64(a, inv)
			checkPin(t, planPins, fmt.Sprintf("f64/n=%d/%s", n, dir), digest128(a))
			b := append([]complex64(nil), x32...)
			pinLine32(b, inv)
			checkPin(t, planPins, fmt.Sprintf("f32/n=%d/%s", n, dir), digest64(b))
		}
	}
}

// pinShapes: even and odd last axes in 2D and 3D, with mixed-radix and
// Bluestein extents on the leading axes.
var pinShapes = [][]int{{24, 30}, {11, 27}, {6, 10, 12}, {5, 7, 13}}

var realPins = map[string]string{
	"f64/[24 30]/fwd":   "52df87a35d98de11f693aac6450d1b09845731b82cf08def7778cd7364064a3c",
	"f64/[24 30]/inv":   "75f6256a6cd1e6288857646ba18038249736ad8db3d76621207f0c1ae81f5325",
	"f32/[24 30]/fwd":   "b74d30e6eaf39b536ed4153f9a1d16015ae6a22b0cad12ee82a98a1ca67adb1c",
	"f32/[24 30]/inv":   "2c706033d0f3d9e6a0c0b65e20f08d27f51efcbba8810f35e5d6792710d03f83",
	"f64/[11 27]/fwd":   "f69c693981981e31e117b984f1cfe3e4209006b11fa9d7d6339e6b9eff314cb7",
	"f64/[11 27]/inv":   "014b50f517e4bdb675702900c064aadab3a84f6b12dd15df8348734990d01f33",
	"f32/[11 27]/fwd":   "21ead151bdd29aaee2e44073f470dc9c58d64e273c56091ef79c878cd509f13a",
	"f32/[11 27]/inv":   "533ea254c9c50d33b36f54a0c2249577d20b8f6bfb18e68f2d9030ef74cba49c",
	"f64/[6 10 12]/fwd": "ab815bb43ef0912a8e0a3966f0cb2f3113a669c4865a886761d95fd7fe8852b9",
	"f64/[6 10 12]/inv": "c8c39d6ce487604ee7d7e19db6defb9a5332a6e1b03dc3b0588275bbcd30223d",
	"f32/[6 10 12]/fwd": "b1aff8c08fe8e7ca732a8f64d5f251a11db0cfb4ff0f0677b0eff29920b5ad77",
	"f32/[6 10 12]/inv": "6082f39da66b9299e0d2b634cc6ef9f0a57ab606fed3fa4bfcd93b293c8460df",
	"f64/[5 7 13]/fwd":  "e46c7bffb01e15051de24dab143339d5807cc7c91e3be78cd9db45a2fac442a9",
	"f64/[5 7 13]/inv":  "4bf352a301aacba5e609f685fecfb36b34ad052db0e07643ad6e9d8a760e4f03",
	"f32/[5 7 13]/fwd":  "361987e550eb8499b20655b6dfe98d6ee779f3dc6c850f512caca07bbc7a1de4",
	"f32/[5 7 13]/inv":  "794114e215ecdb4d7728b8208784af9b41b31441c6186b7f4a40935707129f2f",
}

// TestRealNDBitPins pins ForwardRealND and InverseRealND on both lanes:
// the forward half-spectrum bits, and the bits of the real field the
// inverse recovers from that spectrum.
func TestRealNDBitPins(t *testing.T) {
	for _, dims := range pinShapes {
		total := 1
		for _, d := range dims {
			total *= d
		}
		r := lcg(uint64(total))
		src32 := make([]float32, total)
		src64 := make([]float64, total)
		for i := range src32 {
			src32[i] = float32(r.next())
			src64[i] = float64(src32[i])
		}
		half := HalfLen(dims)

		spec64 := make([]complex128, half)
		if err := ForwardRealND(src64, dims, spec64, 3); err != nil {
			t.Fatal(err)
		}
		checkPin(t, realPins, fmt.Sprintf("f64/%v/fwd", dims), digest128(spec64))
		out64 := make([]float64, total)
		if err := InverseRealND(spec64, dims, out64, 3); err != nil {
			t.Fatal(err)
		}
		checkPin(t, realPins, fmt.Sprintf("f64/%v/inv", dims), digestF64(out64))

		spec32 := make([]complex64, half)
		if err := ForwardRealND(src32, dims, spec32, 3); err != nil {
			t.Fatal(err)
		}
		checkPin(t, realPins, fmt.Sprintf("f32/%v/fwd", dims), digest64(spec32))
		out32 := make([]float32, total)
		if err := InverseRealND(spec32, dims, out32, 3); err != nil {
			t.Fatal(err)
		}
		checkPin(t, realPins, fmt.Sprintf("f32/%v/inv", dims), digestF32(out32))
	}
}

func checkPin(t *testing.T, pins map[string]string, key, got string) {
	t.Helper()
	if want := pins[key]; got != want {
		t.Errorf("%s: output digest %s, pinned %s", key, got, want)
	}
}
