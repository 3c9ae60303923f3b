package lightsecagg

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/fuzzcorpus"
)

// The conformance table of the share vector (codec.go), the one layout of
// this substrate a peer supplies, run by fuzzcorpus. CI runs a -fuzztime
// smoke over FuzzShareVector; after a deliberate layout change, update its
// corpus with WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance.

func TestCodecConformance(t *testing.T) {
	t.Run("lightsecagg", func(t *testing.T) { shareFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("lightsecagg", func(t *testing.T) { shareFamily(t).CheckAlloc(t) })
}

func FuzzShareVector(f *testing.F) { shareFamily(f).Fuzz(f, "FuzzShareVector") }

// TestCodecMalformed: the malformed share vector, a word that is no field
// element.
func TestCodecMalformed(t *testing.T) { shareFamily(t).Check(t, "refuse/share word not canonical") }

// TestDecodersDoNotAliasPayload runs the table's kinds; each sample's rows
// end in the alias check.
func TestDecodersDoNotAliasPayload(t *testing.T) {
	fam := shareFamily(t)
	for _, k := range fam.Kinds {
		fam.Check(t, k.Name)
	}
}

// TestCodecShareVectorRoundTrip: the share-vector rows, and a payload the
// layout checks refuse leaves dst unwritten — OpenEnvelopes decodes
// straight into the round's share row.
func TestCodecShareVectorRoundTrip(t *testing.T) {
	shareFamily(t).Check(t, "share-vector", "refuse/share vector too short", "refuse/share vector too long")
	share := func(n int) []byte { // n elements, none zero
		xs := make([]field.Element, n)
		for i := range xs {
			xs[i] = field.New(uint64(i + 1))
		}
		p, err := appendElems(nil, xs)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := share(shareVectorLen)
	for name, bad := range map[string][]byte{
		"header truncated": p[:3],
		"body truncated":   p[:len(p)-1],
		"trailing byte":    append(bytes.Clone(p), 0),
		"count over cap":   {0xFF, 0xFF, 0xFF, 0xFF},
		"share too short":  share(shareVectorLen - 1),
		"share too long":   share(shareVectorLen + 1),
	} {
		dst := make([]field.Element, shareVectorLen)
		if err := decodeShareInto(dst, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if !slices.Equal(dst, make([]field.Element, shareVectorLen)) {
			t.Errorf("%s: dst written before the layout was checked", name)
		}
	}
}

// shareVectorLen is the share length the share-vector kind decodes into;
// a round fixes it (Config.SubVectorLen) before any envelope is opened.
const shareVectorLen = 3

// shareFamily is the share vector's table: the plaintext sealed inside an
// envelope, decoded into a share row of the round's length.
func shareFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	elems := []field.Element{field.New(1), field.New(2), field.New(field.Modulus - 1)}
	must := func(p []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	notCanonical := must(appendElems(nil, elems))
	// A word ≥ p is not an element: reducing it would give one element two
	// encodings (2^64−1 would decode as 7).
	binary.LittleEndian.PutUint64(notCanonical[4:], ^uint64(0))
	return &fuzzcorpus.Family{
		Kinds: []fuzzcorpus.Kind{{Name: "share-vector",
			Encode: func(v any) ([]byte, error) { return appendElems(nil, v.([]field.Element)) },
			Decode: func(p []byte) (any, error) {
				dst := make([]field.Element, shareVectorLen)
				return dst, decodeShareInto(dst, p)
			},
			Samples: []any{elems},
		}},
		Refuse: []fuzzcorpus.Row{
			// A well-formed share vector of another length than the round's.
			{Name: "share vector too short", Payload: must(appendElems(nil, elems[:2]))},
			{Name: "share vector too long", Payload: must(appendElems(nil, append(slices.Clone(elems), elems[0])))},
			{Name: "share word not canonical", Payload: notCanonical},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzShareVector"}},
	}
}
