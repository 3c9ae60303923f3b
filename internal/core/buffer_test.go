package core

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
)

// TestClientBufferAcrossRounds: a SecAgg client masks its upload in one
// buffer and receives the round's sum into the same buffer, borrowed from
// the result frame; a session keeps that buffer across its sub-rounds and
// rounds, re-sliced to each one's Dim. One client-session set runs rounds
// whose Dim grows, shrinks and grows again, with one client bounced onto a
// fresh session before every round after the first, and each round's
// server sum and every client's Result.Sum must be the plaintext sum
// before the next round starts: an upload masked over the last round's
// sum instead of this round's input, a buffer left at the last Dim, or a
// result frame released before the sum is copied out of it (which -race
// builds poison) moves them. In process, two rounds on one session pool
// whose chunks differ in length stay exact too (each round keys its own
// session set, shared by its chunks).
func TestClientBufferAcrossRounds(t *testing.T) {
	ids := seqIDs(6)
	rig := newServiceRig(t, ids, 4, 4096)
	rig.input = func(id uint64, cfg secagg.Config) ring.Vector {
		v := ring.NewVector(cfg.Bits, cfg.Dim)
		for j := range v.Data {
			v.Data[j] = (id*7919 + uint64(j)*31 + uint64(cfg.Dim)) & v.Mask()
		}
		return v
	}
	for i, dim := range []int{4096, 65536, 1024, 65536} {
		round := uint64(i + 1)
		if i > 0 {
			rig.restartClient(ids[i], nil)
		}
		rig.cfg.Dim = dim
		want := ring.NewVector(rig.cfg.Bits, dim)
		for _, id := range ids {
			if err := want.AddInPlace(rig.input(id, rig.cfg)); err != nil {
				t.Fatal(err)
			}
		}
		rig.results = make(map[uint64]*secagg.Result)
		_, res := rig.round(round, nil)
		sums := map[string][]uint64{"server": res.Sum}
		for _, id := range ids {
			if rig.results[id] == nil {
				t.Fatalf("round %d: client %d holds no result", round, id)
			}
			sums[fmt.Sprintf("client %d", id)] = rig.results[id].Sum
		}
		for who, sum := range sums {
			if !ring.Equal(ring.Vector{Bits: rig.cfg.Bits, Data: sum}, want) {
				t.Fatalf("round %d at dim %d: the %s's sum is not the plaintext sum", round, dim, who)
			}
		}
	}

	// In-process: 16384 coordinates in 3 chunks of 5462, 5461 and 5461, two
	// rounds on one session pool, a client dropping before its upload.
	const n, dim = 8, 16384
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	drops := []uint64{3}
	cfg := RoundConfig{Protocol: ProtocolSecAgg, Codec: codec, Threshold: 5, Chunks: 3, Sessions: NewSessionPool(1)}
	for round := uint64(1); round <= 2; round++ {
		cfg.Round, cfg.Seed = round, prg.NewSeed([]byte("client-buffer"), []byte{byte(round)})
		want, _ := encodedSum(t, codec, cfg.Seed, updates, drops)
		p, err := runRoundRing(cfg, updates, drops, rand.Reader)
		if err != nil {
			t.Fatalf("in-process round %d: %v", round, err)
		}
		if !ring.Equal(p.Sum, want) {
			t.Fatalf("in-process round %d: the sum is not the plain sum of the encodings", round)
		}
	}
}
