package lightsecagg

import (
	"bytes"
	"testing"

	"repro/internal/fuzzcorpus"
)

// Native fuzz target for the two control decoders (roster, survivor set).
// CI runs a -fuzztime smoke over the checked-in seed corpus
// (testdata/fuzz/FuzzControlCodec, which plain `go test` compares with
// these generators — fuzzcorpus.Check — and which is regenerated via
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteControlCorpus).

func controlCodecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	roster, err := encodeRoster([]AdvertiseMsg{
		{From: 1, CipherPub: bytes.Repeat([]byte{0x11}, 32)},
		{From: 2},
		{From: 9, CipherPub: bytes.Repeat([]byte{0x99}, 32)},
	})
	if err != nil {
		tb.Fatal(err)
	}
	survivors, err := encodeSurvivors([]uint64{1, 2, 9})
	if err != nil {
		tb.Fatal(err)
	}
	empty, _ := encodeRoster(nil)
	return [][]byte{
		roster, survivors, empty,
		roster[:len(roster)-1], survivors[:len(survivors)-1], // truncated
		append(append([]byte(nil), roster...), 0x00),  // trailing byte
		{lsaMagic, tagRoster, 0xFF, 0xFF, 0xFF, 0xFF}, // lying counts
		{lsaMagic, tagSurvivors, 0xFF, 0xFF, 0xFF, 0xFF},
		{0xD0, tagRoster, 0, 0, 0, 0}, // wrong magic
	}
}

// recodeControl decodes p with the decoder its tag selects and encodes
// the result again.
func recodeControl(p []byte) ([]byte, error) {
	if roster, err := decodeRoster(p); err == nil {
		return encodeRoster(roster)
	}
	ids, err := decodeSurvivors(p)
	if err != nil {
		return nil, err
	}
	return encodeSurvivors(ids)
}

// TestControlCodecRejectsMalformed: every truncation and trailing byte of
// a valid roster or survivor set is rejected, as is a count the payload
// cannot carry.
func TestControlCodecRejectsMalformed(t *testing.T) {
	seeds := controlCodecSeeds(t)
	for _, good := range seeds[:3] {
		if re, err := recodeControl(good); err != nil || !bytes.Equal(re, good) {
			t.Fatalf("valid payload %x: recoded %x, %v", good, re, err)
		}
		for cut := 0; cut < len(good); cut++ {
			if _, err := recodeControl(good[:cut]); err == nil {
				t.Errorf("truncation at %d of %x accepted", cut, good)
			}
		}
	}
	for _, bad := range seeds[3:] {
		if _, err := recodeControl(bad); err == nil {
			t.Errorf("malformed payload %x accepted", bad)
		}
	}
}

// FuzzControlCodec: the decoders must never panic, and every payload one
// accepts must re-encode to the same bytes.
func FuzzControlCodec(f *testing.F) {
	for _, s := range controlCodecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		re, err := recodeControl(p)
		if err != nil {
			return // malformed input rejected: the property holds
		}
		if !bytes.Equal(re, p) {
			t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", p, re)
		}
	})
}

func TestWriteControlCorpus(t *testing.T) {
	fuzzcorpus.Check(t, "FuzzControlCodec", controlCodecSeeds(t))
}
