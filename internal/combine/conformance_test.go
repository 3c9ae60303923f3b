package combine

import (
	"testing"

	"repro/internal/fuzzcorpus"
)

// The conformance table of the 0xDC combiner frames (codec.go), run by
// fuzzcorpus. CI runs a -fuzztime smoke over FuzzCombineCodec; after a
// deliberate frame change, update its corpus with
// WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance.

func TestCodecConformance(t *testing.T) {
	t.Run("combine", func(t *testing.T) { combineFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("combine", func(t *testing.T) { combineFamily(t).CheckAlloc(t) })
}

func FuzzCombineCodec(f *testing.F) { combineFamily(f).Fuzz(f, "FuzzCombineCodec") }

// The earlier per-codec test names, each running only its own parts of
// the table.
func TestHelloCodecRoundTrip(t *testing.T)   { combineFamily(t).Check(t, "hello") }
func TestPartialCodecRoundTrip(t *testing.T) { combineFamily(t).Check(t, "partial") }
func TestReportCodecRoundTrip(t *testing.T)  { combineFamily(t).Check(t, "report") }
func TestCodecMalformed(t *testing.T) {
	combineFamily(t).Check(t, "refuse/header only", "refuse/next version", "refuse/foreign magic",
		"refuse/lying sum count", "refuse/unknown report flag bits")
}
func TestCodecFuzzSeeded(t *testing.T)    { combineFamily(t).Check(t, "corpus/FuzzCombineCodec") }
func TestWriteCombineCorpus(t *testing.T) { combineFamily(t).Check(t, "corpus/FuzzCombineCodec") }

func combineFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	withTranscript := Partial{
		Shard: 3, Round: 12, Sum: vec(16, 5, 6, 7),
		Survivors: []uint64{31, 32}, Dropped: []uint64{33}, RemovedComponents: []int{0, 2},
		HasTranscript: true,
	}
	for i := range withTranscript.TranscriptRoot {
		withTranscript.TranscriptRoot[i] = byte(i)
	}
	// A report's removal map is never nil once decoded.
	degraded := &RoundReport{
		Round: 12, Sum: vec(16, 9),
		Contributing: []uint64{0, 1}, Missing: []uint64{2}, Degraded: true,
		Survivors: []uint64{1, 2, 3}, Dropped: []uint64{4},
		RemovedComponents: map[uint64][]int{1: {0, 1}},
		StaleRounds:       map[uint64]uint64{2: 11},
	}
	clean := &RoundReport{Round: 1, Sum: vec(16, 0), Contributing: []uint64{0}, Survivors: []uint64{1},
		RemovedComponents: map[uint64][]int{}}
	full, err := EncodePartial(withTranscript)
	if err != nil {
		tb.Fatal(err)
	}
	report, err := EncodeReport(clean)
	if err != nil {
		tb.Fatal(err)
	}
	flags := append([]byte(nil), report...)
	flags[2+1+8+1] |= 0x80
	lyingSum := append(append([]byte(nil), full[:20]...), 0xFF, 0xFF, 0x01)
	lyingSum[19] = 0xFF
	return &fuzzcorpus.Family{
		Kinds: []fuzzcorpus.Kind{
			{Name: "hello",
				Encode:  func(v any) ([]byte, error) { h := v.([2]uint64); return EncodeHello(h[0], h[1]), nil },
				Decode:  func(p []byte) (any, error) { round, shard, err := DecodeHello(p); return [2]uint64{round, shard}, err },
				Samples: []any{[2]uint64{12, 3}}},
			{Name: "partial",
				Encode:  func(v any) ([]byte, error) { return EncodePartial(v.(Partial)) },
				Decode:  func(p []byte) (any, error) { return DecodePartial(p) },
				Samples: []any{withTranscript, Partial{Shard: 0, Round: 1, Sum: vec(20, 1)}, Partial{Shard: 7, Sum: vec(63, 1<<62+5)}}},
			{Name: "report",
				Encode:  func(v any) ([]byte, error) { return EncodeReport(v.(*RoundReport)) },
				Decode:  func(p []byte) (any, error) { return DecodeReport(p) },
				Samples: []any{degraded, clean}},
		},
		Refuse: []fuzzcorpus.Row{
			{Name: "header only", Payload: full[:11]},
			{Name: "next version", Payload: []byte{combineMagic, tagPartial, 0x03}},
			{Name: "foreign magic", Payload: []byte{0xD0, tagHello, 1, 0, 0, 0, 0, 0, 0, 0, 0}},
			{Name: "lying sum count", Payload: lyingSum},
			// Only bit 0 (Degraded) is a report flag: another bit would be
			// dropped on re-encode.
			{Name: "unknown report flag bits", Payload: flags},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzCombineCodec"}},
	}
}
