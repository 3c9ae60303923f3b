package combine

import (
	"reflect"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/ring"
)

// Native fuzz target for the 0xDC combiner frame family. CI runs a
// -fuzztime smoke over the checked-in seed corpus
// (testdata/fuzz/FuzzCombineCodec, which plain `go test` compares with
// these generators — fuzzcorpus.Check — and which is regenerated via
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteCombineCorpus).

// combineCodecSeeds returns the seed frames: every frame kind in both
// codec versions' shapes, plus malformed mutations.
func combineCodecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	encP := func(p Partial) []byte {
		b, err := EncodePartial(p)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	encR := func(r *RoundReport) []byte {
		b, err := EncodeReport(r)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	withTranscript := Partial{
		Shard: 3, Round: 12, Sum: ring.Vector{Bits: 16, Data: []uint64{5, 6, 7}},
		Survivors: []uint64{31, 32}, Dropped: []uint64{33}, RemovedComponents: []int{0, 2},
		HasTranscript: true,
	}
	for i := range withTranscript.TranscriptRoot {
		withTranscript.TranscriptRoot[i] = byte(i)
	}
	report := &RoundReport{
		Round: 12, Sum: ring.Vector{Bits: 16, Data: []uint64{9}},
		Contributing: []uint64{0, 1}, Missing: []uint64{2}, Degraded: true,
		Survivors: []uint64{1, 2, 3}, Dropped: []uint64{4},
		RemovedComponents: map[uint64][]int{1: {0, 1}},
		StaleRounds:       map[uint64]uint64{2: 11},
	}
	full := encP(withTranscript)
	seeds := [][]byte{
		EncodeHello(12, 3),
		full,
		encP(Partial{Shard: 0, Round: 1, Sum: ring.Vector{Bits: 20, Data: []uint64{1}}}),
		encR(report),
		encR(&RoundReport{Round: 1, Sum: ring.Vector{Bits: 16, Data: []uint64{0}},
			Contributing: []uint64{0}, Survivors: []uint64{1},
			RemovedComponents: map[uint64][]int{}}),
		full[:len(full)-1],                          // truncated transcript root
		full[:11],                                   // header only
		{combineMagic, tagPartial, 0x03},            // future version
		{0xD0, tagHello, 1, 0, 0, 0, 0, 0, 0, 0, 0}, // wrong magic
		append(append([]byte(nil), full...), 0x00),  // trailing byte
	}
	return seeds
}

// FuzzCombineCodec: the three decoders must never panic, and every frame
// any of them accepts must survive an encode/decode round trip unchanged.
func FuzzCombineCodec(f *testing.F) {
	for _, s := range combineCodecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if round, shard, err := DecodeHello(p); err == nil {
			r2, s2, err := DecodeHello(EncodeHello(round, shard))
			if err != nil || r2 != round || s2 != shard {
				t.Fatalf("hello round trip diverged: (%d,%d,%v)", r2, s2, err)
			}
		}
		if pt, err := DecodePartial(p); err == nil {
			re, err := EncodePartial(pt)
			if err != nil {
				t.Fatalf("accepted partial does not re-encode: %v", err)
			}
			pt2, err := DecodePartial(re)
			if err != nil {
				t.Fatalf("re-encoded partial does not decode: %v", err)
			}
			if !reflect.DeepEqual(pt, pt2) {
				t.Fatalf("partial round trip diverged:\n%+v\n%+v", pt, pt2)
			}
		}
		if r, err := DecodeReport(p); err == nil {
			re, err := EncodeReport(r)
			if err != nil {
				t.Fatalf("accepted report does not re-encode: %v", err)
			}
			r2, err := DecodeReport(re)
			if err != nil {
				t.Fatalf("re-encoded report does not decode: %v", err)
			}
			if !reflect.DeepEqual(r, r2) {
				t.Fatalf("report round trip diverged:\n%+v\n%+v", r, r2)
			}
		}
	})
}

func TestWriteCombineCorpus(t *testing.T) {
	fuzzcorpus.Check(t, "FuzzCombineCodec", combineCodecSeeds(t))
}
