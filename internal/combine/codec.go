package combine

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/transport"
)

// Binary codec for the combiner frame family, following the core/codec.go
// conventions: magic/tag/version prefix, little-endian length-prefixed
// sections, count-vs-payload validation before any allocation.
//
// Layout (all integers little-endian):
//
//	hello:   [magic][tagHello][ver][Round:8][Shard:8]
//	partial: [magic][tagPartial][ver][Round:8][Shard:8][Bits:1]
//	         [n:4][Sum: n×8] [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	         [n:4][RemovedComponents: n×8, as uint64]
//	         [hasTranscript:1][TranscriptRoot:32, when set]
//	report:  [magic][tagReport][ver][Round:8][Bits:1][flags:1]
//	         [n:4][Sum: n×8] [n:4][Contributing: n×8] [n:4][Missing: n×8]
//	         [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	         [n:4] n × ([shard:8][k:4][components: k×8])
//	         [n:4] n × ([shard:8][staleRound:8])
//	         (flags bit 0: Degraded)
//
// The magic byte (0xDC) keeps the family disjoint from the core codec
// (0xD0), the persisted sessions (0xDA) and the binary share bundles
// (0xDB), so a misrouted payload fails loudly. The version byte gates
// structural evolution the way persistVersion does for sessions: decoders
// accept exactly their own version, so a new-layout combiner never
// silently mis-reads an old shard's partial or vice versa. Version 2
// carries the shard transcript root on partials and the stale-round
// accounting on reports.
const (
	combineMagic   = 0xDC
	tagHello       = 0x01
	tagPartial     = 0x02
	tagReport      = 0x03
	combineVersion = 2

	// maxCombineElems caps decoded slice lengths against hostile length
	// prefixes, mirroring core's maxWireElems (the transport frame cap is
	// the binding limit near the boundary).
	maxCombineElems = 1 << 25
)

// readBits reads a ring width.
func readBits(r *transport.Reader) uint {
	bits := r.Byte()
	if bits < 1 || bits > 63 {
		r.Fail(fmt.Errorf("combine: ring width %d out of [1,63]", bits))
	}
	return uint(bits)
}

// EncodeHello encodes the shard-online announcement.
func EncodeHello(round, shard uint64) []byte {
	w := transport.NewVersionedWriter(combineMagic, tagHello, combineVersion, 16)
	w.Uint64(round)
	w.Uint64(shard)
	out, _ := w.Done() // no capped field: cannot fail
	return out
}

// DecodeHello decodes a shard-online announcement, returning (round, shard).
func DecodeHello(p []byte) (uint64, uint64, error) {
	r := transport.NewVersionedReader(p, combineMagic, tagHello, combineVersion)
	round, shard := r.Uint64(), r.Uint64()
	return round, shard, r.Done()
}

func writeInts(w *transport.Writer, ks []int) {
	w.Count(len(ks), maxCombineElems)
	for _, k := range ks {
		w.Uint64(uint64(k))
	}
}

func readInts(r *transport.Reader) []int {
	xs := r.Words(maxCombineElems)
	if len(xs) == 0 {
		return nil
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		out[i] = int(x)
	}
	return out
}

// EncodePartial encodes one shard partial.
func EncodePartial(p Partial) ([]byte, error) {
	w := transport.NewVersionedWriter(combineMagic, tagPartial, combineVersion, 32+8*(p.Sum.Len()+len(p.Survivors)+len(p.Dropped)))
	w.Uint64(p.Round)
	w.Uint64(p.Shard)
	w.Raw(byte(p.Sum.Bits))
	w.Words(p.Sum.Data, maxCombineElems)
	w.Words(p.Survivors, maxCombineElems)
	w.Words(p.Dropped, maxCombineElems)
	writeInts(w, p.RemovedComponents)
	if p.HasTranscript {
		w.Raw(1)
		w.Raw(p.TranscriptRoot[:]...)
	} else {
		w.Raw(0)
	}
	return w.Done()
}

// PartialRound reads the round a shard partial was sealed for from the
// frame's header alone, so a combiner can tell an early partial from a
// stale one without decoding the sum.
func PartialRound(p []byte) (round uint64, ok bool) {
	const header = 2 + 1 + 8
	if len(p) < header {
		return 0, false
	}
	r := transport.NewVersionedReader(p[:header], combineMagic, tagPartial, combineVersion)
	round = r.Uint64()
	return round, r.Done() == nil
}

// DecodePartial decodes one shard partial.
func DecodePartial(p []byte) (Partial, error) {
	r := transport.NewVersionedReader(p, combineMagic, tagPartial, combineVersion)
	out := Partial{Round: r.Uint64(), Shard: r.Uint64()}
	out.Sum = ring.Vector{Bits: readBits(r), Data: r.Words(maxCombineElems)}
	out.Survivors = r.Words(maxCombineElems)
	out.Dropped = r.Words(maxCombineElems)
	out.RemovedComponents = readInts(r)
	switch flag := r.Byte(); flag {
	case 0:
	case 1:
		out.HasTranscript = true
		copy(out.TranscriptRoot[:], r.Raw(32))
	default:
		r.Fail(fmt.Errorf("combine: shard partial transcript flag %d", flag))
	}
	if err := r.Done(); err != nil {
		return Partial{}, fmt.Errorf("combine: shard partial: %w", err)
	}
	return out, nil
}

// EncodeReport encodes the combiner's round report. Map sections are
// emitted in ascending shard order, the one order the decoder accepts.
func EncodeReport(rep *RoundReport) ([]byte, error) {
	w := transport.NewVersionedWriter(combineMagic, tagReport, combineVersion, 40+8*rep.Sum.Len())
	w.Uint64(rep.Round)
	flags := byte(0)
	if rep.Degraded {
		flags |= 1
	}
	w.Raw(byte(rep.Sum.Bits), flags)
	for _, xs := range [][]uint64{rep.Sum.Data, rep.Contributing, rep.Missing, rep.Survivors, rep.Dropped} {
		w.Words(xs, maxCombineElems)
	}
	w.Count(len(rep.RemovedComponents), maxCombineElems)
	for _, shard := range transport.SortedKeys(rep.RemovedComponents) {
		w.Uint64(shard)
		writeInts(w, rep.RemovedComponents[shard])
	}
	w.Count(len(rep.StaleRounds), maxCombineElems)
	for _, shard := range transport.SortedKeys(rep.StaleRounds) {
		w.Uint64(shard)
		w.Uint64(rep.StaleRounds[shard])
	}
	return w.Done()
}

// DecodeReport decodes a combiner round report.
func DecodeReport(p []byte) (*RoundReport, error) {
	r := transport.NewVersionedReader(p, combineMagic, tagReport, combineVersion)
	rep := &RoundReport{Round: r.Uint64()}
	bits := readBits(r)
	flags := r.Byte()
	if flags&^1 != 0 {
		r.Fail(fmt.Errorf("combine: unknown report flag bits %#x", flags))
	}
	rep.Degraded = flags&1 != 0
	rep.Sum = ring.Vector{Bits: bits, Data: r.Words(maxCombineElems)}
	for _, dst := range []*[]uint64{&rep.Contributing, &rep.Missing, &rep.Survivors, &rep.Dropped} {
		*dst = r.Words(maxCombineElems)
	}
	var prev uint64
	// Each removal entry costs at least a shard id plus an empty slab header.
	n := r.Count(8+4, maxCombineElems)
	rep.RemovedComponents = make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		shard := r.Key(i, &prev)
		rep.RemovedComponents[shard] = readInts(r)
	}
	if n := r.Count(16, maxCombineElems); n > 0 {
		rep.StaleRounds = make(map[uint64]uint64, n)
		for i := 0; i < n; i++ {
			shard := r.Key(i, &prev)
			rep.StaleRounds[shard] = r.Uint64()
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("combine: round report: %w", err)
	}
	return rep, nil
}
