package secagg

import (
	"crypto/rand"
	"errors"
	"slices"
	"testing"

	"repro/internal/sig"
	"repro/internal/xnoise"
)

// TestClientRefusesPaddedU3: a client sizes its noise reveal by the
// dropouts it counts, |cohort| − |U3| (§3.3). A server that pads U3 — with
// an id outside the cohort, which no neighborhood check looks at, or with
// a survivor named twice — understates them: with one real dropout of 5,
// every survivor would reveal its seeds for components [1 2] where one
// dropout warrants only [2], and the release would be under-noised. In
// malicious mode the padding carries the survivors' own consistency
// signatures, so the signature check of Unmask cannot catch it: the
// client refuses the padded U3 at ConsistencyCheck, in either mode.
func TestClientRefusesPaddedU3(t *testing.T) {
	for _, pad := range []struct {
		name string
		id   func(survivors []uint64) uint64
		want error
	}{
		{"outsider", func([]uint64) uint64 { return 999 }, ErrIDOutsideCohort},
		{"repeated survivor", func(s []uint64) uint64 { return s[0] }, ErrRepeatedID},
	} {
		for _, malicious := range []bool{false, true} {
			name := pad.name + "/semi-honest"
			if malicious {
				name = pad.name + "/malicious"
			}
			t.Run(name, func(t *testing.T) {
				clients, survivors, plan := steppedOneDropout(t, malicious)
				padded := append(slices.Clone(survivors), pad.id(survivors))
				sigs := make(map[uint64][]byte)
				for _, id := range survivors {
					m, err := clients[id].ConsistencyCheck(padded)
					if errors.Is(err, pad.want) {
						continue
					}
					if err != nil {
						t.Fatalf("client %d refused U3 %v with %v, want %v", id, padded, err, pad.want)
					}
					sigs[m.From] = m.Signature
				}
				if len(sigs) == 0 {
					return
				}
				// Show what the padding wins: the survivors unmask against it.
				req := UnmaskRequest{U3: padded, U4: survivors, Signatures: sigs}
				for id := range sigs {
					m, err := clients[id].Unmask(req)
					if err != nil {
						t.Fatalf("client %d adopted U3 %v, then refused to unmask: %v", id, padded, err)
					}
					var revealed []int
					for k := range m.OwnNoiseSeeds {
						revealed = append(revealed, k)
					}
					slices.Sort(revealed)
					t.Errorf("client %d adopted U3 %v and revealed its noise seeds for components %v, want a refusal (%v); one dropout warrants %v",
						id, padded, revealed, pad.want, plan.RemovalComponents(1))
				}
			})
		}
	}
}

// steppedOneDropout drives a 5-client XNoise round (t = 3, tolerating 2
// dropouts) by hand through the masked stage with client 5 gone before it
// uploads — semi-honest, or malicious with a signer per client — and
// returns the clients, the survivors (ascending) and the noise plan.
func steppedOneDropout(t *testing.T, malicious bool) (map[uint64]*Client, []uint64, *xnoise.Plan) {
	t.Helper()
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	cfg := mkConfig(5, 3, plan)
	signers := make(map[uint64]*sig.Signer)
	if malicious {
		cfg.Registry = sig.NewRegistry()
		for _, id := range cfg.ClientIDs {
			s, err := sig.NewSigner(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			signers[id] = s
			cfg.Registry.Register(id, s.Public())
		}
	}
	inputs := mkInputs(cfg)
	server, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[uint64]*Client)
	var adverts []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, inputs[id], signers[id], rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		m, err := c.AdvertiseKeys()
		if err != nil {
			t.Fatal(err)
		}
		adverts = append(adverts, m)
	}
	roster, err := collectAdvertise(server, adverts)
	if err != nil {
		t.Fatal(err)
	}
	perSender := make(map[uint64][]EncryptedShareMsg)
	for _, id := range cfg.ClientIDs {
		if perSender[id], err = clients[id].ShareKeys(roster); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, err := collectShares(server, perSender)
	if err != nil {
		t.Fatal(err)
	}
	var masked []MaskedInputMsg
	for _, id := range cfg.ClientIDs[:4] {
		m, err := clients[id].MaskedInput(deliveries[id])
		if err != nil {
			t.Fatal(err)
		}
		masked = append(masked, m)
	}
	survivors, err := collectMasked(server, masked)
	if err != nil {
		t.Fatal(err)
	}
	return clients, survivors, plan
}

// TestClientRefusesRepeatedSurvivors: |U4| ≥ t and |U5| ≥ t must count
// distinct clients, so an unmask or noise-share request that names a
// survivor twice is refused with ErrRepeatedID, and the same request with
// each survivor once is answered.
func TestClientRefusesRepeatedSurvivors(t *testing.T) {
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	_, clients, u3 := steppedToMasked(t, mkConfig(5, 3, plan))
	c := clients[1]
	if _, err := c.ConsistencyCheck(u3); err != nil {
		t.Fatal(err)
	}
	twice := []uint64{1, 2, 2} // three names, two clients: below t = 3
	if _, err := c.Unmask(UnmaskRequest{U3: u3, U4: twice}); !errors.Is(err, ErrRepeatedID) {
		t.Fatalf("U4 %v: %v, want ErrRepeatedID", twice, err)
	}
	if _, err := c.RevealNoiseShares(NoiseShareRequest{U5: twice}); !errors.Is(err, ErrRepeatedID) {
		t.Fatalf("U5 %v: %v, want ErrRepeatedID", twice, err)
	}
	once := []uint64{3, 1, 2}
	if _, err := c.Unmask(UnmaskRequest{U3: u3, U4: once}); err != nil {
		t.Fatalf("U4 %v: %v", once, err)
	}
	if _, err := c.RevealNoiseShares(NoiseShareRequest{U5: once}); err != nil {
		t.Fatalf("U5 %v: %v", once, err)
	}
}

// TestConsistencyCheckBorrowsU3: an ascending U3 — what both links hand
// over — is adopted as it is, so the semi-honest check allocates nothing;
// an unsorted one is searched through a sorted copy and still adopted as
// sent; and an unmask request whose U3 differs from the adopted one is
// still refused.
func TestConsistencyCheckBorrowsU3(t *testing.T) {
	_, clients, u3 := steppedToMasked(t, mkConfig(5, 3, nil))
	if n := testing.AllocsPerRun(100, func() { clients[1].ConsistencyCheck(u3) }); n != 0 {
		t.Errorf("ConsistencyCheck on an ascending U3 allocates %v, want 0", n)
	}
	unsorted := slices.Clone(u3)
	slices.Reverse(unsorted)
	if _, err := clients[2].ConsistencyCheck(unsorted); err != nil {
		t.Fatalf("an unsorted U3: %v", err)
	}
	for id, adopted := range map[uint64][]uint64{1: u3, 2: unsorted} {
		if _, err := clients[id].Unmask(UnmaskRequest{U3: u3[:4], U4: u3[:4]}); err == nil {
			t.Fatalf("client %d accepted a U3 other than %v", id, adopted)
		}
		if _, err := clients[id].Unmask(UnmaskRequest{U3: slices.Clone(adopted), U4: u3}); err != nil {
			t.Fatalf("client %d: the adopted U3 %v: %v", id, adopted, err)
		}
	}
}
