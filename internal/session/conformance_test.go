package session_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/secagg"
	"repro/internal/session"
)

// The conformance table of the 0xDA at-rest session records — the SecAgg
// client record and the server record — run by fuzzcorpus.
// Its samples are one golden record per tag, captured from the encoders,
// so a change that moves a record byte fails here and in the
// FuzzRecordCodec corpus; after a deliberate format change, update both
// (WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance).

func TestCodecConformance(t *testing.T) {
	t.Run("records", func(t *testing.T) { recordFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("records", func(t *testing.T) { recordFamily(t).CheckAlloc(t) })
}

func FuzzRecordCodec(f *testing.F) { recordFamily(f).Fuzz(f, "FuzzRecordCodec") }

// The earlier per-codec test names, each running only its own parts of
// the table.
func TestClientSectionsRoundTrip(t *testing.T) { recordFamily(t).Check(t, "secagg") }
func TestClientSectionsMalformed(t *testing.T) {
	recordFamily(t).Check(t, "refuse/lying client roster count", "refuse/duplicate secret", "refuse/secrets out of order",
		"refuse/unknown continuity flag bits", "refuse/next version", "refuse/lightsecagg next version")
}

// The server kind's samples are the golden record and the empty one.
func TestServerSessionPersistRoundTrip(t *testing.T) { recordFamily(t).Check(t, "server") }
func TestServerSessionPersistEmpty(t *testing.T)     { recordFamily(t).Check(t, "server") }
func TestServerSessionPersistMalformed(t *testing.T) {
	recordFamily(t).Check(t, "refuse/lying roster count", "refuse/server record under a client tag",
		"refuse/taint set out of order", "refuse/server next version", "refuse/foreign magic")
}
func TestServerSessionPersistFuzzSeeded(t *testing.T) {
	recordFamily(t).Check(t, "corpus/FuzzRecordCodec")
}

// The golden records. The secagg client's holds both private keys, a
// tainted continuity section with a two-member roster and one cached mask
// and channel secret; the server's a roster, its client set and a taint
// set. The keys are test keys. lsaRecord is a LightSecAgg client record
// (tag 'L') as the retired LightSecAgg session persistence wrote it: no
// decoder accepts that tag any more, and the refusal rows below keep it,
// its prefix, its overlong form and its next version refused.
const (
	secaggRecord = "da5303e159ce1e5ac5d0879e1b7aa4314e5b857bd629046eb9a6db847c432001f3235f6aab06c76d9ec503bcb664c79a7bf871b5b62e2b1f29691d97f6e123c60247cd0200000000000000010200000001000000000000000300010203030004050602000708020000000000000001000900000000010000002000a80c9e0de6ae3d1e94ac7d955aefb04c3f2a3fe01f06e4e7cb4e97e68f19636a0100000000000000745998be810f5c39d40116e8b1f3ffd48dc1ad62efd38c9cdb3eb784a737401901000000200092cf01959060506e395c17022b0651fcd26821d795a4663ec9555ea28656b3560100000000000000cf32ecba0d687a18cb954bcdb44bd735d16be06e111dafa5aa120731d1bb9f92"
	lsaRecord    = "da4c027270db4a5e0fcf831f3456a6ea51ebc1a59b7aff7afc5c29b1c3b3a54398fb6e03000000000000000002000000010000000000000003000102030000000004000000000000000100050000000000000000"
	serverRecord = "da56012a00000000000000020000000100000000000000030001020302000405010006050000000000000001000d01000e000002000000010000000000000005000000000000000200000001000000000000000500000000000000"
	emptyServer  = "da56010000000000000000000000000000000000000000"
)

func recordFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	unhex := func(s string) []byte {
		p, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	kinds := []fuzzcorpus.Kind{
		{Name: "secagg",
			Encode: func(v any) ([]byte, error) { return v.(*secagg.Session).MarshalBinary() },
			Decode: func(p []byte) (any, error) { return secagg.UnmarshalSession(p) }},
		{Name: "server",
			Encode: func(v any) ([]byte, error) { return v.(*session.ServerState).MarshalBinary() },
			Decode: func(p []byte) (any, error) { s := new(session.ServerState); return s, s.UnmarshalBinary(p) }},
	}
	for i, golden := range [][]string{{secaggRecord}, {serverRecord, emptyServer}} {
		for _, s := range golden {
			v, err := kinds[i].Decode(unhex(s))
			if err != nil {
				tb.Fatalf("golden %s record: %v", kinds[i].Name, err)
			}
			kinds[i].Samples = append(kinds[i].Samples, v)
		}
	}

	// The secagg record's secret sections start after the roster: magic,
	// tag, version, two keys, ratchet, flags, then the roster section.
	const secrets = 3 + 64 + 8 + 1 + 4 + 22 + 15
	const secretLen = 2 + 32 + 8 + 32
	sa := unhex(secaggRecord)
	entry := sa[secrets+4 : secrets+4+secretLen]
	lower := bytes.Clone(entry)
	lower[2+31]-- // the same key but for its last byte, which is lower
	twoSecrets := func(a, b []byte) []byte {
		out := append(bytes.Clone(sa[:secrets]), 2, 0, 0, 0)
		out = append(append(out, a...), b...)
		return append(out, sa[secrets+4+secretLen:]...)
	}
	patch := func(s string, at int, b ...byte) []byte {
		p := unhex(s)
		copy(p[at:], b)
		return p
	}
	sv := unhex(serverRecord)
	taintAt := len(sv) - 4 - 16 // the two tainted ids, 1 and 5
	unsortedTaint := bytes.Clone(sv)
	binary.LittleEndian.PutUint64(unsortedTaint[taintAt+4:], 5)
	binary.LittleEndian.PutUint64(unsortedTaint[taintAt+12:], 1)
	lsa := unhex(lsaRecord)
	return &fuzzcorpus.Family{
		Kinds: kinds,
		Refuse: []fuzzcorpus.Row{
			{Name: "lying roster count", Payload: patch(serverRecord, 3+8, 0xFF, 0xFF, 0x0F, 0x00)},
			{Name: "lying client roster count", Payload: patch(secaggRecord, 3+64+8+1, 0xFF, 0xFF, 0x0F)},
			{Name: "next version", Payload: patch(secaggRecord, 2, 4)},
			{Name: "lightsecagg next version", Payload: patch(lsaRecord, 2, 3)},
			{Name: "server next version", Payload: patch(serverRecord, 2, 2)},
			{Name: "foreign magic", Payload: patch(serverRecord, 0, 0xDB)},
			{Name: "server record under a client tag", Payload: patch(serverRecord, 1, 'S')},
			{Name: "duplicate secret", Payload: twoSecrets(entry, entry)},
			{Name: "secrets out of order", Payload: twoSecrets(entry, lower)},
			{Name: "unknown continuity flag bits", Payload: patch(secaggRecord, 3+64+8, 0x81)},
			{Name: "taint set out of order", Payload: unsortedTaint},
			{Name: "lightsecagg record", Payload: lsa},
			{Name: "lightsecagg record truncated", Payload: lsa[:len(lsa)-1]},
			{Name: "lightsecagg record trailing byte", Payload: append(bytes.Clone(lsa), 0)},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzRecordCodec"}},
	}
}
