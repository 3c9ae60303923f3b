package secagg

import (
	"encoding/binary"
	"testing"

	"repro/internal/field"
	"repro/internal/fuzzcorpus"
)

// The conformance table of the 0xDB share bundle (bundlecodec.go), the
// plaintext sealed inside every stage-1 share ciphertext, run by
// fuzzcorpus. CI runs a -fuzztime smoke over FuzzBundleCodec; after a
// deliberate layout change, update its corpus with
// WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance.

func TestCodecConformance(t *testing.T) {
	t.Run("bundle", func(t *testing.T) { bundleFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("bundle", func(t *testing.T) { bundleFamily(t).CheckAlloc(t) })
}

func FuzzBundleCodec(f *testing.F) { bundleFamily(f).Fuzz(f, "FuzzBundleCodec") }

// The earlier per-codec test names, each running only its own parts of
// the table.
func TestBundleCodecRoundTrip(t *testing.T) { bundleFamily(t).Check(t, "bundle") }
func TestBundleCodecMalformed(t *testing.T) {
	bundleFamily(t).Check(t, "refuse/next version", "refuse/lying noise-seed count", "refuse/foreign magic",
		"refuse/mask-key share X not canonical", "refuse/self-seed share Y not canonical")
}
func TestBundleCodecFuzzSeeded(t *testing.T) { bundleFamily(t).Check(t, "corpus/FuzzBundleCodec") }

func bundleFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	good, err := encodeBundle(testBundle(2))
	if err != nil {
		tb.Fatal(err)
	}
	patch := func(at int, word uint64) []byte {
		p := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(p[at:], word)
		return p
	}
	const selfSeed = 2 + 8 + 8 + numKeyChunks*16
	nextVersion := append([]byte(nil), good...)
	nextVersion[1] = bundleVersion + 1
	lyingCount := append([]byte(nil), good[:bundleFixedLen]...)
	binary.LittleEndian.PutUint32(lyingCount[bundleFixedLen-4:], 0x7FFFFFFF)
	return &fuzzcorpus.Family{
		Kinds: []fuzzcorpus.Kind{{Name: "bundle",
			Encode: func(v any) ([]byte, error) { return encodeBundle(v.(ShareBundle)) },
			Decode: func(p []byte) (any, error) {
				b, _, err := decodeBundle(p, nil)
				return b, err
			},
			Samples: []any{testBundle(0), testBundle(1), testBundle(3)},
		}},
		Refuse: []fuzzcorpus.Row{
			{Name: "next version", Payload: nextVersion},
			{Name: "lying noise-seed count", Payload: lyingCount},
			{Name: "foreign magic", Payload: append([]byte{0xD0}, good[1:]...)},
			// A coordinate ≥ p is not an element: reducing it would give the
			// bundle a second encoding (2^64−1 would decode as 7).
			{Name: "mask-key share X not canonical", Payload: patch(2+8+8, ^uint64(0))},
			{Name: "self-seed share Y not canonical", Payload: patch(selfSeed+8, field.Modulus)},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzBundleCodec"}},
	}
}
