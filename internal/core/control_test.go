package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/field"
	"repro/internal/fuzzcorpus"
	"repro/internal/secagg"
	"repro/internal/shamir"
)

// Tests and the native fuzz target for the control codec (control.go). CI
// runs a -fuzztime smoke over the checked-in seed corpus
// (testdata/fuzz/FuzzControlCodec, which plain `go test` compares with
// these generators — fuzzcorpus.Check — and which is regenerated via
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteControlCorpus).

// controlSample is one control message and the frame tag it travels under.
type controlSample struct {
	tag int
	msg any
}

// controlSamples returns a representative message per control frame tag.
func controlSamples() []controlSample {
	adv := func(id uint64, signed bool) secagg.AdvertiseMsg {
		m := secagg.AdvertiseMsg{From: id, CipherPub: bytes.Repeat([]byte{byte(id)}, 32), MaskPub: bytes.Repeat([]byte{byte(id + 100)}, 32)}
		if signed {
			m.Signature = bytes.Repeat([]byte{0x5A}, 64)
		}
		return m
	}
	return []controlSample{
		{secagg.TagAdvertise, adv(7, true)},
		{secagg.TagRoster, []secagg.AdvertiseMsg{adv(1, false), adv(2, true), adv(9, false)}},
		{secagg.TagConsistencyReq, []uint64{1, 2, 9}},
		{secagg.TagConsistency, secagg.ConsistencyMsg{From: 2, Signature: bytes.Repeat([]byte{0xC3}, 64)}},
		{secagg.TagUnmaskReq, secagg.UnmaskRequest{U3: []uint64{1, 2, 9}, U4: []uint64{1, 9},
			Signatures: map[uint64][]byte{1: {0xAA}, 9: bytes.Repeat([]byte{0xBB}, 64)}}},
		{secagg.TagNoiseReq, secagg.NoiseShareRequest{U5: []uint64{1, 9}}},
		{secagg.TagNoise, secagg.NoiseShareMsg{From: 9, Shares: map[uint64]map[int]shamir.Share{
			2: {1: {X: field.New(9), Y: field.New(1234)}, 2: {X: field.New(9), Y: field.New(field.Modulus - 1)}},
			5: {1: {X: field.New(9), Y: field.New(0)}},
		}}},
	}
}

// TestControlCodecRoundTrip: every control message survives the wire
// codec unchanged, including the empty shapes.
func TestControlCodecRoundTrip(t *testing.T) {
	samples := append(controlSamples(),
		controlSample{secagg.TagAdvertise, secagg.AdvertiseMsg{From: 3}}, // no keys, no signature
		controlSample{secagg.TagRoster, []secagg.AdvertiseMsg(nil)},
		controlSample{secagg.TagUnmaskReq, secagg.UnmaskRequest{}}, // semi-honest and empty
		controlSample{secagg.TagNoise, secagg.NoiseShareMsg{From: 4}},
	)
	for _, s := range samples {
		p, err := wireCodec[s.tag].Encode(s.msg)
		if err != nil {
			t.Fatalf("tag %d: %v", s.tag, err)
		}
		got, err := wireCodec[s.tag].Decode(p)
		if err != nil {
			t.Fatalf("tag %d: %v", s.tag, err)
		}
		if !reflect.DeepEqual(got, s.msg) {
			t.Errorf("tag %d: round trip\n got %+v\nwant %+v", s.tag, got, s.msg)
		}
	}
}

// recodeControl decodes p with the decoder its codec tag selects and
// encodes the result again.
func recodeControl(p []byte) ([]byte, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("short")
	}
	for _, tag := range []int{secagg.TagAdvertise, secagg.TagRoster, secagg.TagConsistencyReq,
		secagg.TagConsistency, secagg.TagUnmaskReq, secagg.TagNoise} {
		msg, err := wireCodec[tag].Decode(p)
		if err != nil {
			continue
		}
		return wireCodec[tag].Encode(msg)
	}
	return nil, fmt.Errorf("no control decoder accepts the payload")
}

// TestControlCodecRejectsMalformed: every truncation, a trailing byte, a
// count the payload cannot carry, unsorted or duplicate map keys and a
// non-canonical field element are all rejected — and never panic.
func TestControlCodecRejectsMalformed(t *testing.T) {
	for _, s := range controlSamples() {
		tag := s.tag
		p, err := wireCodec[tag].Encode(s.msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(p); cut++ {
			if _, err := wireCodec[tag].Decode(p[:cut]); err == nil {
				t.Errorf("tag %d: truncation at %d of %d accepted", tag, cut, len(p))
			}
		}
		if _, err := wireCodec[tag].Decode(append(append([]byte(nil), p...), 0)); err == nil {
			t.Errorf("tag %d: trailing byte accepted", tag)
		}
		for _, o := range controlSamples() {
			other := o.tag
			// The two id-set frames share one layout by design.
			idSets := (tag == secagg.TagConsistencyReq || tag == secagg.TagNoiseReq) &&
				(other == secagg.TagConsistencyReq || other == secagg.TagNoiseReq)
			if _, err := wireCodec[other].Decode(p); err == nil && other != tag && !idSets {
				t.Errorf("tag %d payload accepted by the tag %d decoder", tag, other)
			}
		}
	}
	lyingCount := []byte{codecMagic, tagRoster, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := decodeRoster(lyingCount); err == nil {
		t.Error("roster count beyond the payload accepted")
	}
	req, _ := encodeUnmaskRequest(secagg.UnmaskRequest{Signatures: map[uint64][]byte{1: {1}, 2: {2}}})
	swapped := append([]byte(nil), req...)
	swapped[2+4+4+4], swapped[2+4+4+4+8+3] = 2, 1 // ids 2, 1: descending
	if _, err := decodeUnmaskRequest(swapped); err == nil {
		t.Error("descending signature ids accepted")
	}
	swapped[2+4+4+4] = 1 // ids 1, 1: duplicate
	if _, err := decodeUnmaskRequest(swapped); err == nil {
		t.Error("duplicate signature id accepted")
	}
	ns, _ := encodeNoiseShares(secagg.NoiseShareMsg{From: 1, Shares: map[uint64]map[int]shamir.Share{2: {1: {}}}})
	for i := len(ns) - 8; i < len(ns); i++ {
		ns[i] = 0xFF // Y = 2^64−1 ≥ p
	}
	if _, err := decodeNoiseShares(ns); err == nil {
		t.Error("non-canonical field element accepted")
	}
}

// controlCodecSeeds returns the fuzz seeds: a canonical encoding of every
// control message plus the malformed mutations a fuzzer should start from.
func controlCodecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, s := range controlSamples() {
		p, err := wireCodec[s.tag].Encode(s.msg)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, p, p[:len(p)-1], append(append([]byte(nil), p...), 0x00))
	}
	return append(seeds,
		[]byte{codecMagic, tagRoster, 0xFF, 0xFF, 0xFF, 0xFF},      // lying count
		[]byte{codecMagic, tagNoiseShares, 0, 0, 0, 0, 0, 0, 0, 0}, // section header cut
		[]byte{0xDE, tagAdvertise, 0, 0, 0, 0, 0, 0, 0, 0},         // wrong magic
	)
}

// FuzzControlCodec: the control decoders must never panic, and every
// payload one of them accepts must re-encode to the same bytes — so no
// accepted payload carries slack a peer could hide data or a second
// meaning in, and no length prefix outruns the payload it came with.
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
