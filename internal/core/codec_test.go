package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/secagg"
	"repro/internal/shamir"
)

func TestMaskedInputCodecRoundTrip(t *testing.T) {
	for _, dim := range []int{0, 1, 7, 4096} {
		msg := secagg.MaskedInputMsg{From: 1<<63 + 5, Y: make([]uint64, dim)}
		for i := range msg.Y {
			msg.Y[i] = uint64(i*i+1) & ((1 << 20) - 1)
		}
		p, err := encodeMaskedInput(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMaskedInput(p)
		if err != nil {
			t.Fatal(err)
		}
		// The decoder borrows: the vector comes back as the payload's own
		// little-endian words.
		if got.From != msg.From || got.Y != nil || len(got.YLE) != 8*len(msg.Y) {
			t.Fatalf("dim %d: round trip mangled header: %+v", dim, got)
		}
		for i := range msg.Y {
			if y := binary.LittleEndian.Uint64(got.YLE[8*i:]); y != msg.Y[i] {
				t.Fatalf("dim %d: Y[%d] = %d, want %d", dim, i, y, msg.Y[i])
			}
		}
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	res := secagg.Result{
		Sum:               []uint64{1, 2, 1 << 19, 0},
		Survivors:         []uint64{2, 3, 5},
		Dropped:           []uint64{7},
		RemovedComponents: []int{2, 3, 4},
	}
	p, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sum) != 4 || got.Sum[2] != 1<<19 ||
		len(got.Survivors) != 3 || got.Survivors[2] != 5 ||
		len(got.Dropped) != 1 || got.Dropped[0] != 7 ||
		len(got.RemovedComponents) != 3 || got.RemovedComponents[0] != 2 {
		t.Fatalf("round trip mangled result: %+v", got)
	}

	empty := secagg.Result{Survivors: []uint64{1, 2}}
	p, err = encodeResult(empty)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sum != nil || got.RemovedComponents != nil || len(got.Survivors) != 2 {
		t.Fatalf("empty-field round trip: %+v", got)
	}
}

// TestCodecRejectsMalformed: truncated, mis-tagged, and trailing-garbage
// payloads must error, and another family member must not pass the tag check.
func TestCodecRejectsMalformed(t *testing.T) {
	msg := secagg.MaskedInputMsg{From: 9, Y: []uint64{1, 2, 3}}
	p, err := encodeMaskedInput(msg)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short":        p[:5],
		"truncated":    p[:len(p)-1],
		"trailing":     append(append([]byte(nil), p...), 0xFF),
		"wrong tag":    append([]byte{codecMagic, tagResult}, p[2:]...),
		"no magic":     append([]byte{0x00}, p[1:]...),
		"length lie":   append(p[:10], 0xFF, 0xFF, 0xFF, 0x7F),
		"ctl payload":  mustControl(t),
		"result bytes": mustEncodeResult(t),
	}
	for name, bad := range cases {
		if _, err := decodeMaskedInput(bad); err == nil {
			t.Errorf("%s: decodeMaskedInput accepted malformed payload", name)
		}
	}
	if _, err := decodeResult(p); err == nil {
		t.Error("decodeResult accepted a masked-input payload")
	}
}

func TestShareMsgsCodecRoundTrip(t *testing.T) {
	cases := [][]secagg.EncryptedShareMsg{
		nil,
		{},
		{{From: 1, To: 2, Ciphertext: []byte{0xAA}}},
		{
			{From: 1 << 63, To: 7, Ciphertext: make([]byte, 113)},
			{From: 3, To: 4, Ciphertext: nil}, // empty ciphertext survives
			{From: 5, To: 6, Ciphertext: []byte("share bundle ct")},
		},
	}
	for ci, msgs := range cases {
		p, err := encodeShareMsgs(msgs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeShareMsgs(p)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("case %d: %d messages, want %d", ci, len(got), len(msgs))
		}
		for i, m := range msgs {
			g := got[i]
			if g.From != m.From || g.To != m.To || !bytes.Equal(g.Ciphertext, m.Ciphertext) {
				t.Fatalf("case %d message %d mangled: %+v != %+v", ci, i, g, m)
			}
		}
	}
}

// TestShareMsgsCodecRejectsMalformed: structured corruptions of a valid
// payload must error, never panic or mis-decode silently.
func TestShareMsgsCodecRejectsMalformed(t *testing.T) {
	msgs := []secagg.EncryptedShareMsg{
		{From: 2, To: 3, Ciphertext: []byte{1, 2, 3, 4}},
		{From: 2, To: 5, Ciphertext: []byte{9, 8}},
	}
	p, err := encodeShareMsgs(msgs)
	if err != nil {
		t.Fatal(err)
	}
	countLie := append([]byte(nil), p...)
	countLie[2], countLie[3], countLie[4], countLie[5] = 0xFF, 0xFF, 0xFF, 0x7F
	ctLie := append([]byte(nil), p...)
	ctLie[6+16], ctLie[6+17], ctLie[6+18], ctLie[6+19] = 0xFF, 0xFF, 0xFF, 0x7F
	cases := map[string][]byte{
		"empty":       {},
		"magic only":  {codecMagic},
		"short":       p[:5],
		"header cut":  p[:8],
		"ct cut":      p[:len(p)-1],
		"trailing":    append(append([]byte(nil), p...), 0x00),
		"wrong tag":   append([]byte{codecMagic, tagMaskedInput}, p[2:]...),
		"no magic":    append([]byte{0x13}, p[1:]...),
		"count lie":   countLie,
		"ctlen lie":   ctLie,
		"ctl payload": mustControl(t),
	}
	for name, bad := range cases {
		if _, err := decodeShareMsgs(bad); err == nil {
			t.Errorf("%s: decodeShareMsgs accepted malformed payload", name)
		}
	}
}

// TestShareMsgsCodecFuzz: random truncations and byte flips over a pool
// of valid payloads must round-trip exactly or error — never panic, never
// allocate absurdly. Deterministic fuzz (seeded PRG) so failures replay.
func TestShareMsgsCodecFuzz(t *testing.T) {
	s := prg.NewStream(prg.NewSeed([]byte("share-codec-fuzz")))
	mkMsgs := func() []secagg.EncryptedShareMsg {
		n := int(s.Uint64() % 6)
		msgs := make([]secagg.EncryptedShareMsg, n)
		for i := range msgs {
			ct := make([]byte, s.Uint64()%40)
			if _, err := s.Read(ct); err != nil {
				t.Fatal(err)
			}
			msgs[i] = secagg.EncryptedShareMsg{From: s.Uint64(), To: s.Uint64(), Ciphertext: ct}
		}
		return msgs
	}
	for round := 0; round < 300; round++ {
		msgs := mkMsgs()
		p, err := encodeShareMsgs(msgs)
		if err != nil {
			t.Fatal(err)
		}
		// Clean decode must round-trip.
		got, err := decodeShareMsgs(p)
		if err != nil {
			t.Fatalf("round %d: clean decode: %v", round, err)
		}
		if len(got) != len(msgs) {
			t.Fatalf("round %d: %d messages, want %d", round, len(got), len(msgs))
		}
		// Mutate: truncate at a random point or flip a random byte.
		mutated := append([]byte(nil), p...)
		switch s.Uint64() % 2 {
		case 0:
			mutated = mutated[:s.Uint64()%uint64(len(mutated)+1)]
		case 1:
			if len(mutated) > 0 {
				mutated[s.Uint64()%uint64(len(mutated))] ^= byte(1 + s.Uint64()%255)
			}
		}
		dec, err := decodeShareMsgs(mutated) // must not panic
		if err == nil {
			// A flip that lands in From/To/ciphertext bytes still decodes;
			// structure must stay sane.
			if len(dec) > maxShareMsgs {
				t.Fatalf("round %d: mutated decode produced %d messages", round, len(dec))
			}
		}
	}
}

func sampleUnmaskMsg() secagg.UnmaskMsg {
	bundle := func(base uint64) (b [secagg.NumKeyChunks]shamir.Share) {
		for c := range b {
			b[c] = shamir.Share{X: field.New(base), Y: field.New(base*100 + uint64(c))}
		}
		return b
	}
	return secagg.UnmaskMsg{
		From: 1<<63 + 9,
		MaskKeyShares: map[uint64][secagg.NumKeyChunks]shamir.Share{
			4: bundle(4), 7: bundle(7),
		},
		SelfSeedShares: map[uint64]shamir.Share{
			1: {X: field.New(1), Y: field.New(11)},
			2: {X: field.New(2), Y: field.New(22)},
			3: {X: field.New(3), Y: field.New(33)},
		},
		OwnNoiseSeeds: map[int]field.Element{2: field.New(200), 5: field.New(500)},
	}
}

func TestUnmaskCodecRoundTrip(t *testing.T) {
	cases := []secagg.UnmaskMsg{
		sampleUnmaskMsg(),
		{From: 3}, // all-nil maps
		{From: 4, SelfSeedShares: map[uint64]shamir.Share{9: {X: field.New(9), Y: field.New(90)}}},
	}
	for ci, msg := range cases {
		p, err := encodeUnmask(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeUnmask(p)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.From != msg.From ||
			len(got.MaskKeyShares) != len(msg.MaskKeyShares) ||
			len(got.SelfSeedShares) != len(msg.SelfSeedShares) ||
			len(got.OwnNoiseSeeds) != len(msg.OwnNoiseSeeds) {
			t.Fatalf("case %d: round trip mangled shape: %+v", ci, got)
		}
		for v, b := range msg.MaskKeyShares {
			if got.MaskKeyShares[v] != b {
				t.Fatalf("case %d: mask-key bundle %d mangled", ci, v)
			}
		}
		for v, sh := range msg.SelfSeedShares {
			if got.SelfSeedShares[v] != sh {
				t.Fatalf("case %d: self-seed share %d mangled", ci, v)
			}
		}
		for k, g := range msg.OwnNoiseSeeds {
			if got.OwnNoiseSeeds[k] != g {
				t.Fatalf("case %d: noise seed %d mangled", ci, k)
			}
		}
	}
	// Deterministic encoding (map iteration order must not leak through).
	a, _ := encodeUnmask(sampleUnmaskMsg())
	b, _ := encodeUnmask(sampleUnmaskMsg())
	if !bytes.Equal(a, b) {
		t.Fatal("encodeUnmask is not deterministic")
	}
}

// TestUnmaskCodecRejectsMalformed: structured corruptions of a valid
// payload must error, never panic or silently mis-decode.
func TestUnmaskCodecRejectsMalformed(t *testing.T) {
	p, err := encodeUnmask(sampleUnmaskMsg())
	if err != nil {
		t.Fatal(err)
	}
	countLie := append([]byte(nil), p...)
	countLie[10], countLie[11], countLie[12], countLie[13] = 0xFF, 0xFF, 0xFF, 0x7F
	dupTarget := append([]byte(nil), p...)
	// The two mask-key bundles start at offset 14; make the second's id
	// equal the first's.
	copy(dupTarget[14+8+8*elementsPerMaskBundle:], dupTarget[14:14+8])
	cases := map[string][]byte{
		"empty":       {},
		"magic only":  {codecMagic},
		"short":       p[:9],
		"section cut": p[:12],
		"entry cut":   p[:len(p)-1],
		"trailing":    append(append([]byte(nil), p...), 0x00),
		"wrong tag":   append([]byte{codecMagic, tagShareMsgs}, p[2:]...),
		"no magic":    append([]byte{0x42}, p[1:]...),
		"count lie":   countLie,
		"dup target":  dupTarget,
		"ctl payload": mustControl(t),
	}
	for name, bad := range cases {
		if _, err := decodeUnmask(bad); err == nil {
			t.Errorf("%s: decodeUnmask accepted malformed payload", name)
		}
	}
	if _, err := decodeMaskedInput(p); err == nil {
		t.Error("decodeMaskedInput accepted an unmask payload")
	}
}

// TestUnmaskCodecFuzz: random truncations and byte flips over valid
// payloads must round-trip exactly or error — never panic. Deterministic
// fuzz (seeded PRG) so failures replay.
func TestUnmaskCodecFuzz(t *testing.T) {
	s := prg.NewStream(prg.NewSeed([]byte("unmask-codec-fuzz")))
	fe := func() field.Element { return field.New(s.Uint64() & field.Modulus) }
	mkMsg := func() secagg.UnmaskMsg {
		m := secagg.UnmaskMsg{From: s.Uint64()}
		if n := int(s.Uint64() % 4); n > 0 {
			m.MaskKeyShares = make(map[uint64][secagg.NumKeyChunks]shamir.Share, n)
			for i := 0; i < n; i++ {
				var b [secagg.NumKeyChunks]shamir.Share
				for c := range b {
					b[c] = shamir.Share{X: fe(), Y: fe()}
				}
				m.MaskKeyShares[s.Uint64()] = b
			}
		}
		if n := int(s.Uint64() % 4); n > 0 {
			m.SelfSeedShares = make(map[uint64]shamir.Share, n)
			for i := 0; i < n; i++ {
				m.SelfSeedShares[s.Uint64()] = shamir.Share{X: fe(), Y: fe()}
			}
		}
		if n := int(s.Uint64() % 3); n > 0 {
			m.OwnNoiseSeeds = make(map[int]field.Element, n)
			for i := 0; i < n; i++ {
				m.OwnNoiseSeeds[int(s.Uint64()%64)] = fe()
			}
		}
		return m
	}
	for round := 0; round < 300; round++ {
		msg := mkMsg()
		p, err := encodeUnmask(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeUnmask(p); err != nil {
			t.Fatalf("round %d: clean decode: %v", round, err)
		}
		mutated := append([]byte(nil), p...)
		switch s.Uint64() % 2 {
		case 0:
			mutated = mutated[:s.Uint64()%uint64(len(mutated)+1)]
		case 1:
			mutated[s.Uint64()%uint64(len(mutated))] ^= byte(1 + s.Uint64()%255)
		}
		dec, err := decodeUnmask(mutated) // must not panic
		if err == nil {
			if len(dec.MaskKeyShares) > maxUnmaskEntries ||
				len(dec.SelfSeedShares) > maxUnmaskEntries ||
				len(dec.OwnNoiseSeeds) > maxUnmaskEntries {
				t.Fatalf("round %d: mutated decode produced absurd shape", round)
			}
		}
	}
}

// mustControl returns a well-formed payload of another member of the 0xD0
// family, which no bulk decoder may accept.
func mustControl(t *testing.T) []byte {
	t.Helper()
	p, err := encodeIDSet([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustEncodeResult(t *testing.T) []byte {
	t.Helper()
	p, err := encodeResult(secagg.Result{Sum: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
