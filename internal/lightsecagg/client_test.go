package lightsecagg

import (
	"bytes"
	crand "crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"repro/internal/field"
)

// TestClientDrawOrderGolden: the mask and the T noise pieces are windows of
// one slab filled in one call, and must be the elements — and leave the
// reader at the byte — that a mask fill followed by one fill per noise
// piece did. The goldens are SHA-256 over mask ‖ every piece ‖ the next 8
// bytes of the reader, captured from NewSessionClient at commit 69aba92
// for a plain reader (chunk boundaries inside pieces) and a PRG stream
// under one 16 KiB read and over many; all three take the same bulk-read
// path, since prg.Stream.Read yields the stream's keystream.
func TestClientDrawOrderGolden(t *testing.T) {
	sess, err := NewSession(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 8*9000+8)
	if _, err := io.ReadFull(rng("draw-bytes"), raw); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		rand io.Reader
		want string
	}{
		{"bytes.Reader", testConfig(4, 1, 1, 6000), bytes.NewReader(raw),
			"d64acaaa78ef2829ffc3a63f9d14db8a0b0e7d9176a576f7036f80320091199e"},
		{"stream, one read", testConfig(5, 2, 1, 10), rng("draw-small"),
			"dadd5f251235fa9f073f760ce085278d64e34759620e993b6407b187f8fd47b7"},
		{"stream, many reads", testConfig(4, 1, 1, 40000), rng("draw-large"),
			"105d18ce7da97ed7df059095242031c378e1305e648793c255150853eb7ba586"},
	} {
		c, err := NewSessionClient(tc.cfg, 1, tc.rand, sess)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		pd := tc.cfg.PaddedDim() // the mask, then all U pieces: the mask's U−T again, then the noise
		for _, e := range append(c.random[:pd:pd], c.random...) {
			binary.LittleEndian.PutUint64(b[:], e.Uint64())
			h.Write(b[:])
		}
		if _, err := io.ReadFull(tc.rand, b[:]); err != nil {
			t.Fatal(err)
		}
		h.Write(b[:])
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: draws hash to %s, want %s", tc.name, got, tc.want)
		}
	}
}

// sharedCohort runs a cohort through offline sharing in-process: every
// client seals, the server routes. It returns the clients and each one's
// delivery, unopened.
func sharedCohort(t *testing.T, cfg Config, label string) (map[uint64]*Client, map[uint64][]Envelope) {
	t.Helper()
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		if clients[id], err = NewClient(cfg, id, rng(label)); err != nil {
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

// TestOpenEnvelopesLeavesEnvelopeIntact: in-process an envelope's
// ciphertext is a window of its sender's slab and n recipients' deliveries
// share that slab, so opening must only read it — on the wire link (a
// decoded frame's copy) just the same.
func TestOpenEnvelopesLeavesEnvelopeIntact(t *testing.T) {
	cfg := testConfig(5, 1, 1, 40)
	clients, deliveries := sharedCohort(t, cfg, "intact")
	for id, link := range map[uint64]string{1: "in-process", 2: "wire"} {
		envs := deliveries[id]
		if link == "wire" {
			p, err := encodeEnvelopes(envs)
			if err != nil {
				t.Fatal(err)
			}
			if envs, err = decodeEnvelopes(p); err != nil {
				t.Fatal(err)
			}
		}
		before := make([][]byte, len(envs))
		for i, e := range envs {
			before[i] = bytes.Clone(e.Ciphertext)
		}
		if err := clients[id].OpenEnvelopes(envs); err != nil {
			t.Fatalf("%s: %v", link, err)
		}
		for i, e := range envs {
			if !bytes.Equal(e.Ciphertext, before[i]) {
				t.Errorf("%s: opening rewrote the envelope from %d", link, e.From)
			}
		}
	}
}

// TestOpenEnvelopesRefusesDuplicateOrExcess: a row of the received slab is
// written at most once — a second envelope (or plain share) from one
// sender and a delivery longer than the roster are errors, and a client
// that was handed each share once still answers the recovery.
func TestOpenEnvelopesRefusesDuplicateOrExcess(t *testing.T) {
	cfg := testConfig(4, 1, 1, 12)
	clients, deliveries := sharedCohort(t, cfg, "dup")
	envs := deliveries[1]
	if err := clients[1].OpenEnvelopes(append(envs[:2:2], envs[1])); err == nil || !strings.Contains(err.Error(), "duplicate envelope from") {
		t.Errorf("duplicate envelope in one delivery: %v", err)
	}
	if err := clients[2].OpenEnvelopes(append(deliveries[2][:4:4], deliveries[2][0])); err == nil || !strings.Contains(err.Error(), "for a roster of") {
		t.Errorf("5 envelopes for 4 members: %v", err)
	}
	c := clients[3]
	if err := c.OpenEnvelopes(deliveries[3]); err != nil {
		t.Fatal(err)
	}
	if err := c.OpenEnvelopes(deliveries[3][:1]); err == nil || !strings.Contains(err.Error(), "duplicate envelope from") {
		t.Errorf("duplicate envelope across deliveries: %v", err)
	}
	if err := c.ReceiveShare(2, make([]field.Element, cfg.SubVectorLen())); err == nil {
		t.Error("ReceiveShare overwrote an opened share")
	}
	if _, err := c.AggregateShare(cfg.ClientIDs); err != nil {
		t.Errorf("honest recovery after refused duplicates: %v", err)
	}
}

// TestMaskedInputTwiceIsAnError: the masked upload is built in the mask's
// own memory, so a second call would add the input to y, not to z — it is
// refused, and so is encoding shares from the consumed mask.
func TestMaskedInputTwiceIsAnError(t *testing.T) {
	cfg := testConfig(4, 1, 1, 10)
	c, err := NewClient(cfg, 2, rng("twice"))
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
