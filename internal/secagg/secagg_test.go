package secagg

import (
	"crypto/rand"
	"errors"
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/sig"
	"repro/internal/xnoise"
)

// mkConfig builds a round config for n clients with ids 1..n.
func mkConfig(n, t int, plan *xnoise.Plan) Config {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return Config{
		Round:     7,
		ClientIDs: ids,
		Threshold: t,
		Bits:      20,
		Dim:       64,
		XNoise:    plan,
	}
}

// mkInputs creates deterministic small inputs: client i's vector is
// constant i (in ring representation).
func mkInputs(cfg Config) map[uint64]ring.Vector {
	out := make(map[uint64]ring.Vector, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		v := ring.NewVector(cfg.Bits, cfg.Dim)
		for j := range v.Data {
			v.Data[j] = id & v.Mask()
		}
		out[id] = v
	}
	return out
}

// expectedSum returns the ring sum of the inputs of the given survivors.
func expectedSum(cfg Config, inputs map[uint64]ring.Vector, survivors []uint64) ring.Vector {
	acc := ring.NewVector(cfg.Bits, cfg.Dim)
	for _, id := range survivors {
		if err := acc.AddInPlace(inputs[id]); err != nil {
			panic(err)
		}
	}
	return acc
}

func TestPlainRoundNoDropout(t *testing.T) {
	cfg := mkConfig(5, 3, nil)
	inputs := mkInputs(cfg)
	rr, err := RunWithSessions(cfg, inputs, nil, nil, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedSum(cfg, inputs, cfg.ClientIDs)
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatalf("aggregate mismatch: got %v want %v", got.Data[:4], want.Data[:4])
	}
	if len(rr.Result.Dropped) != 0 {
		t.Errorf("dropped = %v, want none", rr.Result.Dropped)
	}
}

func TestPlainRoundDropBeforeMaskedInput(t *testing.T) {
	// The paper's canonical dropout point: after ShareKeys, before upload.
	cfg := mkConfig(6, 3, nil)
	inputs := mkInputs(cfg)
	drops := DropSchedule{2: StageMaskedInput, 5: StageMaskedInput}
	rr, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedSum(cfg, inputs, []uint64{1, 3, 4, 6})
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("aggregate should equal the survivors' sum (dead pairwise masks cancelled)")
	}
	if len(rr.Result.Dropped) != 2 {
		t.Errorf("dropped = %v", rr.Result.Dropped)
	}
}

func TestPlainRoundDropAtEveryStage(t *testing.T) {
	for _, stage := range []Stage{StageAdvertiseKeys, StageShareKeys, StageMaskedInput, StageUnmasking} {
		cfg := mkConfig(6, 3, nil)
		inputs := mkInputs(cfg)
		drops := DropSchedule{4: stage}
		rr, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
		if err != nil {
			t.Fatalf("stage %v: %v", stage, err)
		}
		// A client dropping at or before MaskedInput is excluded from the
		// sum; dropping later it is included (its masked input arrived).
		var surv []uint64
		for _, id := range cfg.ClientIDs {
			if id != 4 || stage > StageMaskedInput {
				surv = append(surv, id)
			}
		}
		want := expectedSum(cfg, inputs, surv)
		got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
		if !ring.Equal(got, want) {
			t.Fatalf("stage %v: aggregate mismatch", stage)
		}
	}
}

func TestAbortWhenBelowThreshold(t *testing.T) {
	cfg := mkConfig(4, 3, nil)
	inputs := mkInputs(cfg)
	drops := DropSchedule{1: StageMaskedInput, 2: StageMaskedInput}
	if _, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil); err == nil {
		t.Fatal("round with |U3| < t must abort")
	}
}

func TestXNoiseExactRemoval(t *testing.T) {
	// White-box exactness: with XNoise, the aggregate equals
	// Σ_{u∈U3} (Δ_u + Σ_k n_{u,k}) − Σ_{u∈U3} Σ_{k>|D|} n_{u,k}, computed
	// independently from the clients' seeds.
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	cfg := mkConfig(5, 3, plan)
	inputs := mkInputs(cfg)
	drops := DropSchedule{2: StageMaskedInput}
	rr, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	survivors := rr.Result.Survivors
	numDropped := len(cfg.ClientIDs) - len(survivors)

	want := expectedSum(cfg, inputs, survivors)
	keep := map[int]bool{}
	for k := 0; k <= numDropped; k++ {
		keep[k] = true
	}
	for _, id := range survivors {
		seeds := rr.Clients[id].NoiseSeeds()
		for k := 0; k <= plan.DropoutTolerance; k++ {
			if !keep[k] {
				continue // removed by the server
			}
			comp, err := xnoise.ComponentNoise(*plan, cfg.sampler(), seeds[k], k, cfg.Dim)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AddSignedInPlace(comp); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("XNoise removal is not exact")
	}
	if len(rr.Result.RemovedComponents) != plan.DropoutTolerance-numDropped {
		t.Errorf("removed components %v", rr.Result.RemovedComponents)
	}
}

func TestXNoiseResidualVariance(t *testing.T) {
	// Statistical check of Theorem 1 through the full protocol: residual
	// noise variance ≈ σ²* for dropout 0, 1, 2.
	const dim = 16384
	for _, numDropped := range []int{0, 1, 2} {
		plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 100}
		cfg := mkConfig(5, 3, plan)
		cfg.Dim = dim
		inputs := mkInputs(cfg)
		drops := DropSchedule{}
		for i := 0; i < numDropped; i++ {
			drops[uint64(i+1)] = StageMaskedInput
		}
		rr, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := expectedSum(cfg, inputs, rr.Result.Survivors)
		got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
		if err := got.SubInPlace(want); err != nil {
			t.Fatal(err)
		}
		residual := got.Centered()
		var sum, sumSq float64
		for _, v := range residual {
			f := float64(v)
			sum += f
			sumSq += f * f
		}
		mean := sum / float64(dim)
		variance := sumSq/float64(dim) - mean*mean
		if math.Abs(variance-plan.TargetVariance)/plan.TargetVariance > 0.1 {
			t.Errorf("|D|=%d: residual variance %v, want ≈%v", numDropped, variance, plan.TargetVariance)
		}
	}
}

func TestXNoiseMidRemovalDropout(t *testing.T) {
	// A client that uploaded its masked input but dies before Unmasking
	// (U3\U5): the server reconstructs its seeds via stage 5 and removal
	// still lands exactly on target.
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	cfg := mkConfig(5, 3, plan)
	inputs := mkInputs(cfg)
	drops := DropSchedule{3: StageUnmasking} // in U3, not in U5
	rr, err := RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Client 3 IS a survivor (its input is in the sum), and |D| = 0, so
	// all components k ∈ {1,2} of every survivor (incl. 3) are removed.
	if len(rr.Result.Survivors) != 5 {
		t.Fatalf("survivors = %v", rr.Result.Survivors)
	}
	want := expectedSum(cfg, inputs, rr.Result.Survivors)
	for _, id := range rr.Result.Survivors {
		seeds := rr.Clients[id].NoiseSeeds()
		comp, err := xnoise.ComponentNoise(*plan, cfg.sampler(), seeds[0], 0, cfg.Dim)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.AddSignedInPlace(comp); err != nil {
			t.Fatal(err)
		}
	}
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("mid-removal dropout: reconstruction-based removal not exact")
	}
}

// collectAdvertise, collectShares and collectMasked drive the server's
// first three stages by hand: Add* over a batch, then Seal*.
func collectAdvertise(s *Server, msgs []AdvertiseMsg) ([]AdvertiseMsg, error) {
	for _, m := range msgs {
		if err := s.AddAdvertise(m); err != nil {
			return nil, err
		}
	}
	return s.SealAdvertise()
}

func collectShares(s *Server, perSender map[uint64][]EncryptedShareMsg) (map[uint64][]EncryptedShareMsg, error) {
	for sender, cts := range perSender {
		if err := s.AddShare(sender, cts); err != nil {
			return nil, err
		}
	}
	return s.SealShares()
}

func collectMasked(s *Server, msgs []MaskedInputMsg) ([]uint64, error) {
	for _, m := range msgs {
		if err := s.AddMasked(m); err != nil {
			return nil, err
		}
	}
	return s.SealMasked()
}

// steppedToMasked drives a semi-honest round by hand through the masked
// stage, every client uploading, and returns the server, the clients and
// U3.
func steppedToMasked(t *testing.T, cfg Config) (*Server, map[uint64]*Client, []uint64) {
	t.Helper()
	inputs := mkInputs(cfg)
	server, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	clients := make(map[uint64]*Client)
	var adverts []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, inputs[id], nil, rand.Reader, nil)
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
	for _, id := range cfg.ClientIDs {
		m, err := clients[id].MaskedInput(deliveries[id])
		if err != nil {
			t.Fatal(err)
		}
		masked = append(masked, m)
	}
	u3, err := collectMasked(server, masked)
	if err != nil {
		t.Fatal(err)
	}
	return server, clients, u3
}

// TestUnmaskBeforeConsistencyCheck: every stage table runs the
// ConsistencyCheck stage, so a client asked to unmask before it has U3
// refuses with the named error instead of adopting the request's U3.
func TestUnmaskBeforeConsistencyCheck(t *testing.T) {
	_, clients, u3 := steppedToMasked(t, mkConfig(4, 3, nil))
	if _, err := clients[1].Unmask(UnmaskRequest{U3: u3, U4: u3}); !errors.Is(err, ErrUnmaskBeforeConsistency) {
		t.Fatalf("Unmask before ConsistencyCheck: %v, want ErrUnmaskBeforeConsistency", err)
	}
}

// TestNoiseShareComponentsRefused: client 3 uploads its masked input and
// dies before unmasking, so stage 5 recovers its removable seeds. A
// response whose shares for 3 miss a removable component, or name one
// more (the kept component 0), is refused with ErrNoiseComponents and
// leaves no trace: the same responder's honest response is then admitted,
// stage 5 seals, and the round finalizes.
func TestNoiseShareComponentsRefused(t *testing.T) {
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	cfg := mkConfig(5, 3, plan)
	const late = 3
	server, clients, u3 := steppedToMasked(t, cfg)
	for _, id := range u3 {
		m, err := clients[id].ConsistencyCheck(u3)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddConsistency(m); err != nil {
			t.Fatal(err)
		}
	}
	req, err := server.SealConsistency()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range u3 {
		if id == late {
			continue
		}
		m, err := clients[id].Unmask(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddUnmask(m); err != nil {
			t.Fatal(err)
		}
	}
	nsReq, err := server.SealUnmask()
	if err != nil {
		t.Fatal(err)
	}
	if nsReq == nil {
		t.Fatal("no stage-5 request for a client in U3\\U5")
	}
	doctor := map[string]func(byK map[int]shamir.Share){
		"missing": func(byK map[int]shamir.Share) { delete(byK, 2) },
		"extra":   func(byK map[int]shamir.Share) { byK[0] = byK[1] },
	}
	for _, id := range nsReq.U5 {
		honest, err := clients[id].RevealNoiseShares(*nsReq)
		if err != nil {
			t.Fatal(err)
		}
		if id == nsReq.U5[0] {
			for name, f := range doctor {
				bad := NoiseShareMsg{From: id, Shares: map[uint64]map[int]shamir.Share{late: maps.Clone(honest.Shares[late])}}
				f(bad.Shares[late])
				if err := server.AddNoiseShare(bad); !errors.Is(err, ErrNoiseComponents) {
					t.Fatalf("%s component: %v, want ErrNoiseComponents", name, err)
				}
			}
		}
		if err := server.AddNoiseShare(honest); err != nil {
			t.Fatal(err)
		}
	}
	if err := server.SealNoiseShares(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestMaliciousModeHappyPath(t *testing.T) {
	cfg := mkConfig(5, 4, nil) // 2t > |U|
	cfg.Registry = sig.NewRegistry()
	signers := make(map[uint64]*sig.Signer)
	for _, id := range cfg.ClientIDs {
		s, err := sig.NewSigner(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
		if err := cfg.Registry.Register(id, s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	inputs := mkInputs(cfg)
	rr, err := RunWithSessions(cfg, inputs, signers, nil, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedSum(cfg, inputs, cfg.ClientIDs)
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("malicious-mode aggregate mismatch")
	}
}

func TestMaliciousDetectsForgedAdvertisement(t *testing.T) {
	cfg := mkConfig(4, 3, nil)
	cfg.Registry = sig.NewRegistry()
	signers := make(map[uint64]*sig.Signer)
	for _, id := range cfg.ClientIDs {
		s, _ := sig.NewSigner(rand.Reader)
		signers[id] = s
		cfg.Registry.Register(id, s.Public())
	}
	inputs := mkInputs(cfg)

	// Build clients manually; tamper with client 2's advertisement as a
	// malicious server would when impersonating.
	c1, err := NewSessionClient(cfg, 1, inputs[1], signers[1], rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	var roster []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, inputs[id], signers[id], rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.AdvertiseKeys()
		if err != nil {
			t.Fatal(err)
		}
		roster = append(roster, m)
	}
	// Swap client 2's mask key for an attacker-chosen one, keeping the
	// stale signature.
	evil, _ := NewSessionClient(cfg, 2, inputs[2], signers[2], rand.Reader, nil)
	em, _ := evil.AdvertiseKeys()
	roster[1].MaskPub = em.MaskPub

	if _, err := c1.ShareKeys(roster); err == nil {
		t.Fatal("client must reject a roster entry with an invalid signature")
	}
}

// TestShareKeysRosterChecks: every roster check ShareKeys makes before it
// shares anything is reachable and named, on the sorted view that replaced
// the per-sub-round maps — and a roster that arrives out of order is
// accepted without being reordered under its caller.
func TestShareKeysRosterChecks(t *testing.T) {
	cfg := mkConfig(5, 3, nil)
	cfg.Registry = sig.NewRegistry()
	signers := make(map[uint64]*sig.Signer)
	for _, id := range cfg.ClientIDs {
		s, err := sig.NewSigner(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[id] = s
		if err := cfg.Registry.Register(id, s.Public()); err != nil {
			t.Fatal(err)
		}
	}
	inputs := mkInputs(cfg)
	var honest []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, inputs[id], signers[id], rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.AdvertiseKeys()
		if err != nil {
			t.Fatal(err)
		}
		honest = append(honest, m)
	}
	// resign makes entry i a validly signed advertisement of whatever keys
	// it now carries, so the key checks are not shadowed by the signature.
	resign := func(r []AdvertiseMsg, i int) {
		r[i].Signature = signers[r[i].From].Sign(advertisePayload(r[i]))
	}
	cases := []struct {
		name   string
		tamper func(r []AdvertiseMsg) []AdvertiseMsg
		want   string // "" = accepted
	}{
		{"honest", func(r []AdvertiseMsg) []AdvertiseMsg { return r }, ""},
		{"out of order", func(r []AdvertiseMsg) []AdvertiseMsg { r[0], r[4] = r[4], r[0]; return r }, ""},
		{"duplicate entry", func(r []AdvertiseMsg) []AdvertiseMsg { return append(r, r[1]) }, "duplicate roster entry for 2"},
		{"duplicate entry, apart", func(r []AdvertiseMsg) []AdvertiseMsg { return append([]AdvertiseMsg{r[3]}, r...) }, "duplicate roster entry for 4"},
		{"two clients, one cipher key", func(r []AdvertiseMsg) []AdvertiseMsg {
			r[2].CipherPub = r[0].CipherPub
			resign(r, 2)
			return r
		}, "repeated public key"},
		{"mask key is another's cipher key", func(r []AdvertiseMsg) []AdvertiseMsg {
			r[3].MaskPub = r[1].CipherPub
			resign(r, 3)
			return r
		}, "repeated public key"},
		{"one client, one key twice", func(r []AdvertiseMsg) []AdvertiseMsg {
			r[4].MaskPub = r[4].CipherPub
			resign(r, 4)
			return r
		}, "repeated public key"},
		{"stale signature", func(r []AdvertiseMsg) []AdvertiseMsg { r[1].MaskPub = r[2].CipherPub; return r }, "bad advertise signature from 2"},
		{"self missing", func(r []AdvertiseMsg) []AdvertiseMsg { return r[1:] }, "client 1 missing from roster"},
		{"below threshold", func(r []AdvertiseMsg) []AdvertiseMsg { return r[:2] }, "|U1|=2 < t=3"},
	}
	for _, tc := range cases {
		c, err := NewSessionClient(cfg, 1, inputs[1], signers[1], rand.Reader, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvertiseKeys(); err != nil {
			t.Fatal(err)
		}
		roster := tc.tamper(append([]AdvertiseMsg(nil), honest...))
		order := make([]uint64, len(roster))
		for i, m := range roster {
			order[i] = m.From
		}
		cts, err := c.ShareKeys(roster)
		switch {
		case tc.want == "" && (err != nil || len(cts) != len(roster)-1):
			t.Errorf("%s: %d ciphertexts, err %v; want %d and none", tc.name, len(cts), err, len(roster)-1)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		for i, m := range roster {
			if m.From != order[i] {
				t.Fatalf("%s: ShareKeys reordered its caller's roster", tc.name)
			}
		}
	}
}

func TestMaliciousDetectsUnderstatedDropout(t *testing.T) {
	// §3.3 headline attack: the server claims a dropped client survived
	// (to trick survivors into removing more noise). Clients must reject
	// the unmask request because the phantom survivor has no valid
	// consistency signature.
	plan := &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 50}
	cfg := mkConfig(5, 3, plan)
	cfg.Registry = sig.NewRegistry()
	signers := make(map[uint64]*sig.Signer)
	for _, id := range cfg.ClientIDs {
		s, _ := sig.NewSigner(rand.Reader)
		signers[id] = s
		cfg.Registry.Register(id, s.Public())
	}
	inputs := mkInputs(cfg)

	clients := make(map[uint64]*Client)
	server, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
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
		cts, err := clients[id].ShareKeys(roster)
		if err != nil {
			t.Fatal(err)
		}
		perSender[id] = cts
	}
	deliveries, err := collectShares(server, perSender)
	if err != nil {
		t.Fatal(err)
	}
	// Client 5 drops before masked input.
	var maskedMsgs []MaskedInputMsg
	for id, cts := range deliveries {
		if id == 5 {
			continue
		}
		m, err := clients[id].MaskedInput(cts)
		if err != nil {
			t.Fatal(err)
		}
		maskedMsgs = append(maskedMsgs, m)
	}
	u3, err := collectMasked(server, maskedMsgs)
	if err != nil {
		t.Fatal(err)
	}
	// The malicious server LIES: it claims client 5 is in U3.
	lyingU3 := append(append([]uint64(nil), u3...), 5)
	var consMsgs []ConsistencyMsg
	for _, id := range u3 {
		m, err := clients[id].ConsistencyCheck(lyingU3)
		if err != nil {
			t.Fatal(err)
		}
		consMsgs = append(consMsgs, m)
	}
	// ConsistencyCheck accepts lyingU3 (5 is in U2: it completed
	// ShareKeys). So the rejection happens at Unmask: the server cannot
	// produce 5's signature over (round, lyingU3).
	sigs := make(map[uint64][]byte)
	for _, m := range consMsgs {
		sigs[m.From] = m.Signature
	}
	req := UnmaskRequest{U3: lyingU3, U4: lyingU3, Signatures: sigs}
	for _, id := range u3 {
		if _, err := clients[id].Unmask(req); err == nil {
			t.Fatalf("client %d accepted an understated dropout outcome", id)
		}
	}
}

func TestClientRejectsShrunkU3(t *testing.T) {
	// Server claiming fewer survivors than the client knows signed U3
	// (overstated dropout → removing less noise is safe for privacy but
	// U3 change between stages must still be caught).
	_, clients, u3 := steppedToMasked(t, mkConfig(4, 3, nil))
	if _, err := clients[1].ConsistencyCheck(u3); err != nil {
		t.Fatal(err)
	}
	// Doctored request: U3 shrunk after the client pinned it.
	req := UnmaskRequest{U3: u3[:3], U4: u3[:3]}
	if _, err := clients[1].Unmask(req); err == nil {
		t.Fatal("client accepted a changed U3")
	}
}

// TestMaskedInputBadPeerKey: a roster entry whose mask key no X25519
// agreement accepts (the all-zero low-order point) fails the masked upload
// with that agreement's error — the abort path of the mask fan-out —
// rather than uploading a vector some of whose masks were skipped.
func TestMaskedInputBadPeerKey(t *testing.T) {
	cfg := mkConfig(4, 3, nil)
	inputs := mkInputs(cfg)
	clients := make(map[uint64]*Client)
	server, _ := NewSessionServer(cfg, nil)
	var adverts []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, _ := NewSessionClient(cfg, id, inputs[id], nil, rand.Reader, nil)
		clients[id] = c
		m, _ := c.AdvertiseKeys()
		adverts = append(adverts, m)
	}
	roster, _ := collectAdvertise(server, adverts)
	for i := range roster {
		if roster[i].From == 3 {
			roster[i].MaskPub = make([]byte, len(roster[i].MaskPub))
		}
	}
	perSender := make(map[uint64][]EncryptedShareMsg)
	for _, id := range cfg.ClientIDs {
		cts, err := clients[id].ShareKeys(roster)
		if err != nil {
			t.Fatal(err)
		}
		perSender[id] = cts
	}
	deliveries, _ := collectShares(server, perSender)
	_, err := clients[1].MaskedInput(deliveries[1])
	if err == nil || !strings.Contains(err.Error(), "mask key agreement 1↔3") {
		t.Fatalf("MaskedInput with an unusable peer key: err = %v, want the 1↔3 agreement failure", err)
	}
}

func TestConfigValidation(t *testing.T) {
	good := mkConfig(4, 3, nil)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.ClientIDs = c.ClientIDs[:1] },
		func(c *Config) { c.ClientIDs = []uint64{3, 1, 2, 4} },
		func(c *Config) { c.ClientIDs = []uint64{1, 1, 2, 3} },
		func(c *Config) { c.Threshold = 1 },
		func(c *Config) { c.Threshold = 9 },
		func(c *Config) { c.Bits = 1 },
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.Registry = sig.NewRegistry(); c.Threshold = 2 }, // malicious mode, 2t <= |U|
		func(c *Config) {
			c.XNoise = &xnoise.Plan{NumClients: 3, DropoutTolerance: 0, Threshold: 3, TargetVariance: 1}
		},
		func(c *Config) {
			c.XNoise = &xnoise.Plan{NumClients: 4, DropoutTolerance: 0, Threshold: 2, TargetVariance: 1}
		},
	}
	// RunWithSessions validates once and builds its parties on the
	// validated config; the public constructors each still validate.
	inputs := mkInputs(good)
	for i, mutate := range cases {
		c := mkConfig(4, 3, nil)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
		for name, build := range map[string]func() error{
			"RunWithSessions": func() error {
				_, err := RunWithSessions(c, inputs, nil, nil, rand.Reader, nil)
				return err
			},
			"NewSessionClient": func() error {
				_, err := NewSessionClient(c, 1, inputs[1], nil, rand.Reader, nil)
				return err
			},
			"NewSessionServer": func() error {
				_, err := NewSessionServer(c, nil)
				return err
			},
		} {
			if err := build(); err == nil {
				t.Errorf("case %d: %s accepts an invalid config", i, name)
			}
		}
	}
}

func TestKeyChunkRoundTrip(t *testing.T) {
	var secret [32]byte
	for i := range secret {
		secret[i] = byte(i*7 + 3)
	}
	if back := chunksToBytes(bytesToChunks(secret)); back != secret {
		t.Fatal("chunk round trip failed")
	}
}

func TestKeyShareReconstruct(t *testing.T) {
	var secret [32]byte
	copy(secret[:], []byte("a 32 byte x25519 private scalar!"))
	xs := make([]field.Element, 5)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	chunks := bytesToChunks(secret)
	table := make([]shamir.Share, len(xs)*numKeyChunks)
	if err := shamir.Deal(table, chunks[:], 3, xs, rand.Reader); err != nil {
		t.Fatal(err)
	}
	bundles := make([][numKeyChunks]shamir.Share, len(xs))
	for i := range bundles {
		bundles[i] = [numKeyChunks]shamir.Share(table[i*numKeyChunks:])
	}
	got, err := reconstructKey(bundles[1:4], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatal("key reconstruction mismatch")
	}
	if _, err := reconstructKey(bundles[:2], 3); err == nil {
		t.Fatal("sub-threshold reconstruction should fail")
	}
}
