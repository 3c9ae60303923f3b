package lightsecagg

import (
	"bytes"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/prg"
)

// TestClientDrawOrderGolden: a client reads exactly one prg.Seed from its
// reader, whatever the slab size, and its slab — the mask, then the T
// noise pieces — is that seed's PRG stream under field.RandomElement's
// low-61-bit rule, word for word (checked against scalar Uint64 draws).
// The goldens are SHA-256 over the slab's little-endian words, captured
// when the seeded pad replaced the byte-per-element fill, for a slab
// inside the stream's refill buffer, one bulk pass plus a buffered tail,
// and many bulk chunks.
func TestClientDrawOrderGolden(t *testing.T) {
	sess, err := NewSession(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, prg.SeedSize+8)
	if _, err := io.ReadFull(rng("draw-bytes"), raw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"inside one refill", testConfig(5, 2, 1, 10),
			"fbb901796e7c47163c5feb14c6cfe14e2bd549b402ba15fa51ffab38e11937ce"},
		{"one bulk pass", testConfig(4, 1, 1, 600),
			"bd6f0d40abb01a1238c479ea64ec84e2ed18c8a734dfd2509927bc7ce0a185b2"},
		{"many bulk chunks", testConfig(4, 1, 1, 40000),
			"262c44280a66c7133a1195de594bad260ca9072b77513798360be4466a52da38"},
	} {
		r := bytes.NewReader(raw)
		c, err := NewSessionClient(tc.cfg, 1, r, sess)
		if err != nil {
			t.Fatal(err)
		}
		if read := len(raw) - r.Len(); read != prg.SeedSize {
			t.Errorf("%s: client read %d bytes, want one %d-byte seed", tc.name, read, prg.SeedSize)
		}
		if want := tc.cfg.RecoveryThreshold() * tc.cfg.SubVectorLen(); len(c.random) != want {
			t.Fatalf("%s: slab of %d elements, want U·L = %d", tc.name, len(c.random), want)
		}
		stream := prg.NewStream(prg.Seed(raw[:prg.SeedSize]))
		h := sha256.New()
		var b [8]byte
		for i, e := range c.random {
			binary.LittleEndian.PutUint64(b[:], stream.Uint64())
			if want := field.RandomElement(b); e != want {
				t.Fatalf("%s: slab[%d] = %v, want the seed's draw %v", tc.name, i, e, want)
			}
			binary.LittleEndian.PutUint64(b[:], e.Uint64())
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: slab hashes to %s, want %s", tc.name, got, tc.want)
		}
	}
}

// sharedCohort runs a cohort through offline sharing in-process: every
// client seals, the server routes. It returns the clients and each one's
// delivery, unopened.
func sharedCohort(t *testing.T, cfg Config, label string) (map[uint64]*Client, map[uint64][]Envelope) {
	t.Helper()
	server, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		if clients[id], err = NewSessionClient(cfg, id, rng(label), nil); err != nil {
			t.Fatal(err)
		}
		if err := server.AddAdvertise(clients[id].Advertise()); err != nil {
			t.Fatal(err)
		}
	}
	roster, err := server.SealAdvertise()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cfg.ClientIDs {
		envs, err := clients[id].SealShares(roster)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddShareBundle(id, envs); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, err := server.SealShareBundles()
	if err != nil {
		t.Fatal(err)
	}
	return clients, deliveries
}

// TestOpenEnvelopesLeavesEnvelopeIntact: an envelope's ciphertext is a
// window of its sender's slab and n recipients' deliveries share that
// slab, so opening must only read it.
func TestOpenEnvelopesLeavesEnvelopeIntact(t *testing.T) {
	cfg := testConfig(5, 1, 1, 40)
	clients, deliveries := sharedCohort(t, cfg, "intact")
	for _, id := range []uint64{1, 2} {
		envs := deliveries[id]
		before := make([][]byte, len(envs))
		for i, e := range envs {
			before[i] = bytes.Clone(e.Ciphertext)
		}
		if err := clients[id].OpenEnvelopes(envs); err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
		for i, e := range envs {
			if !bytes.Equal(e.Ciphertext, before[i]) {
				t.Errorf("client %d: opening rewrote the envelope from %d", id, e.From)
			}
		}
	}
}

// TestOpenEnvelopesRefusesDuplicateOrExcess: a client keeps its own share
// and every delivery carries exactly one envelope from each other client.
// A row of the received slab is written at most once — a second envelope
// (or plain share) from one sender, an envelope from the client itself and
// a delivery of n envelopes are errors, refused before their row is
// written, and a client that was handed each share once still answers the
// recovery.
func TestOpenEnvelopesRefusesDuplicateOrExcess(t *testing.T) {
	cfg := testConfig(4, 1, 1, 12)
	clients, deliveries := sharedCohort(t, cfg, "dup")
	for _, id := range cfg.ClientIDs {
		from := make([]uint64, 0, len(deliveries[id]))
		for _, e := range deliveries[id] {
			from = append(from, e.From)
		}
		slices.Sort(from)
		others := slices.DeleteFunc(slices.Clone(cfg.ClientIDs), func(x uint64) bool { return x == id })
		if !slices.Equal(from, others) {
			t.Fatalf("client %d is delivered envelopes from %v, want one from each of %v", id, from, others)
		}
	}
	envs := deliveries[1]
	if err := clients[1].OpenEnvelopes(append(envs[:2:2], envs[1])); err == nil || !strings.Contains(err.Error(), "duplicate envelope from") {
		t.Errorf("duplicate envelope in one delivery: %v", err)
	}
	if err := clients[2].OpenEnvelopes(append(deliveries[2][:3:3], deliveries[2][0])); err == nil || !strings.Contains(err.Error(), "3 other members") {
		t.Errorf("4 envelopes for 3 other members: %v", err)
	}
	self := Envelope{From: 4, To: 4, Ciphertext: deliveries[4][0].Ciphertext}
	if err := clients[4].OpenEnvelopes([]Envelope{self}); err == nil || !strings.Contains(err.Error(), "to itself") {
		t.Errorf("envelope from the client itself: %v", err)
	}
	if err := clients[4].OpenEnvelopes(deliveries[4]); err != nil {
		t.Errorf("refused deliveries wrote a row: %v", err)
	}
	c := clients[3]
	if err := c.OpenEnvelopes(deliveries[3]); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenEnvelopes(deliveries[3][:1]); err == nil || !strings.Contains(err.Error(), "duplicate envelope from") {
		t.Errorf("duplicate envelope across deliveries: %v", err)
	}
	for _, from := range []uint64{2, 3} {
		if _, err := c.freeRow(from); err == nil {
			t.Errorf("the row of the share from %d is free to overwrite", from)
		}
	}
	s, err := c.AggregateShare(cfg.ClientIDs)
	if err != nil {
		t.Fatalf("honest recovery after refused duplicates: %v", err)
	}
	want := make([]field.Element, cfg.SubVectorLen())
	for _, id := range cfg.ClientIDs {
		shares, err := clients[id].EncodeShares()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range shares[3] {
			want[i] = field.Add(want[i], e)
		}
	}
	if !slices.Equal(s, want) {
		t.Errorf("aggregate share %v, want Σ_i f_i(α_3) = %v", s, want)
	}
}

// TestMaskedInputTwiceIsAnError: the masked upload is built in the mask's
// own memory, so a second call would add the input to y, not to z — it is
// refused, and so is encoding shares from the consumed mask.
func TestMaskedInputTwiceIsAnError(t *testing.T) {
	cfg := testConfig(4, 1, 1, 10)
	c, err := NewSessionClient(cfg, 2, rng("twice"), nil)
	if err != nil {
		t.Fatal(err)
	}
	mask := append([]field.Element(nil), c.random...)
	input := liftAll([]int64{1, -2, 3, -4, 5, -6, 7, -8, 9, -10})
	y, err := c.MaskedInput(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != field.Add(input[i], mask[i]) {
			t.Fatalf("y[%d] = %v, want x + z = %v", i, y[i], field.Add(input[i], mask[i]))
		}
	}
	first := append([]field.Element(nil), y...)
	if _, err := c.MaskedInput(input); err == nil {
		t.Error("second MaskedInput accepted")
	}
	if _, err := c.EncodeShares(); err == nil {
		t.Error("EncodeShares after MaskedInput accepted")
	}
	for i := range y {
		if y[i] != first[i] {
			t.Fatalf("refused calls moved y[%d]", i)
		}
	}
}

// TestAggregateShareRefusesSmallOrMalformedSurvivorSet: a recovery request
// naming fewer than U survivors would hand the server Σ over a set small
// enough to isolate one mask ({i} gives f_i(α_j), and U of those give z_i);
// the client refuses it, and any list that is not a strictly ascending
// subset of the roster, before summing anything.
func TestAggregateShareRefusesSmallOrMalformedSurvivorSet(t *testing.T) {
	cfg := testConfig(6, 1, 2, 12) // U = 4
	clients, deliveries := sharedCohort(t, cfg, "survivors")
	c := clients[2]
	if err := c.OpenEnvelopes(deliveries[2]); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]uint64{
		"single":    {3},
		"short":     {1, 2, 3},
		"empty":     nil,
		"duplicate": {1, 2, 2, 3},
		"padded":    {3, 3, 3, 3},
		"unsorted":  {1, 3, 2, 4},
		"unknown":   {1, 2, 3, 9},
	} {
		if s, err := c.AggregateShare(bad); err == nil {
			t.Errorf("%s survivor list %v answered with %v", name, bad, s)
		}
	}
	for _, honest := range [][]uint64{{1, 2, 3, 4}, {1, 3, 4, 5, 6}, cfg.ClientIDs} {
		s, err := c.AggregateShare(honest)
		if err != nil {
			t.Fatalf("honest survivor list %v: %v", honest, err)
		}
		want := make([]field.Element, cfg.SubVectorLen())
		for _, id := range honest {
			shares, err := clients[id].EncodeShares()
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range shares[2] {
				want[i] = field.Add(want[i], e)
			}
		}
		for i := range want {
			if s[i] != want[i] {
				t.Fatalf("survivors %v: s[%d] = %v, want %v", honest, i, s[i], want[i])
			}
		}
	}
}

// TestAggregateShareIgnoresUnreceivedRow: SealShares encodes a client's
// outgoing shares into its received slab, so until a peer's envelope
// overwrites it, that peer's row holds the share sealed for the peer. A
// client whose delivery lacks peer j's envelope must refuse a recovery
// request naming j rather than sum that stale share in j's place; a
// request that leaves j out it answers from received shares only.
func TestAggregateShareIgnoresUnreceivedRow(t *testing.T) {
	cfg := testConfig(6, 1, 2, 12) // U = 4
	clients, deliveries := sharedCohort(t, cfg, "unreceived")
	c := clients[2]
	partial := slices.DeleteFunc(slices.Clone(deliveries[2]), func(e Envelope) bool { return e.From == 5 })
	if len(partial) != len(deliveries[2])-1 {
		t.Fatalf("delivery to 2 carries %d envelopes from 5, want 1", len(deliveries[2])-len(partial))
	}
	if err := c.OpenEnvelopes(partial); err != nil {
		t.Fatal(err)
	}
	outgoing, err := c.EncodeShares()
	if err != nil {
		t.Fatal(err)
	}
	rank, _ := cfg.rank(5)
	if !slices.Equal(c.row(rank), outgoing[5]) {
		t.Fatal("the row of 5 does not hold the share 2 sealed for 5: the stale-row case is not exercised")
	}
	for _, survivors := range [][]uint64{cfg.ClientIDs, {1, 2, 3, 5}} {
		if s, err := c.AggregateShare(survivors); err == nil || !strings.Contains(err.Error(), "no share from survivor 5") {
			t.Errorf("survivors %v without the share from 5: answered %v, %v", survivors, s, err)
		}
	}
	survivors := []uint64{1, 2, 3, 4, 6}
	s, err := c.AggregateShare(survivors)
	if err != nil {
		t.Fatalf("survivors %v: %v", survivors, err)
	}
	want := make([]field.Element, cfg.SubVectorLen())
	for _, id := range survivors {
		shares, err := clients[id].EncodeShares()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range shares[2] {
			want[i] = field.Add(want[i], e)
		}
	}
	if !slices.Equal(s, want) {
		t.Errorf("aggregate share %v, want Σ_i f_i(α_2) = %v", s, want)
	}
}
