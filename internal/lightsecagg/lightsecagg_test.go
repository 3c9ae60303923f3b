package lightsecagg

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/prg"
)

func testConfig(n, t, d, dim int) Config {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return Config{ClientIDs: ids, PrivacyT: t, Dropout: d, Dim: dim}
}

func liftAll(vs []int64) []field.Element {
	out := make([]field.Element, len(vs))
	for i, v := range vs {
		out[i] = Lift(v)
	}
	return out
}

func rng(label string) *prg.Stream {
	return prg.NewStream(prg.NewSeed([]byte("lsa-test"), []byte(label)))
}

// makeInputs builds deterministic signed inputs and their expected sum
// over an arbitrary surviving subset.
func makeInputs(cfg Config) (map[uint64][]field.Element, func(exclude map[uint64]bool) []int64) {
	raw := make(map[uint64][]int64, len(cfg.ClientIDs))
	inputs := make(map[uint64][]field.Element, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		v := make([]int64, cfg.Dim)
		for i := range v {
			v[i] = int64(id)*100 + int64(i) - 50 // mixed signs
		}
		raw[id] = v
		inputs[id] = liftAll(v)
	}
	wantSum := func(exclude map[uint64]bool) []int64 {
		sum := make([]int64, cfg.Dim)
		for _, id := range cfg.ClientIDs {
			if exclude[id] {
				continue
			}
			for i, v := range raw[id] {
				sum[i] += v
			}
		}
		return sum
	}
	return inputs, wantSum
}

func checkSum(t *testing.T, got []field.Element, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if Center(got[i]) != want[i] {
			t.Fatalf("coord %d: got %d, want %d", i, Center(got[i]), want[i])
		}
	}
}

func TestRoundNoDropout(t *testing.T) {
	cfg := testConfig(6, 2, 2, 37) // d not divisible by U−T: padding path
	inputs, wantSum := makeInputs(cfg)
	got, err := RunWithSessions(cfg, inputs, nil, rng("nodrop"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(nil))
}

func TestRoundDropBeforeUpload(t *testing.T) {
	cfg := testConfig(6, 2, 2, 16)
	inputs, wantSum := makeInputs(cfg)
	drops := DropSchedule{2: StageMaskedInput, 5: StageMaskedInput} // exactly D dropouts
	got, err := RunWithSessions(cfg, inputs, drops, rng("drop2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(map[uint64]bool{2: true, 5: true}))
}

// TestSealAggSharesTwiceIsAnError: recovery takes the mask sum out of the
// server's masked sum in place, part by part — here eight parts of L = 2
// over nine coordinates, so the last three lie wholly in the padding — and
// a second seal is refused, leaving the first result as it was.
func TestSealAggSharesTwiceIsAnError(t *testing.T) {
	cfg := testConfig(10, 1, 1, 9) // U = 9, parts = 8
	clients, deliveries := sharedCohort(t, cfg, "seal-twice")
	inputs, wantSum := makeInputs(cfg)
	server, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cfg.ClientIDs {
		if err := clients[id].OpenEnvelopes(deliveries[id]); err != nil {
			t.Fatal(err)
		}
		y, err := clients[id].MaskedInput(inputs[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddMasked(MaskedMsg{From: id, Y: y}); err != nil {
			t.Fatal(err)
		}
	}
	survivors, err := server.SealMasked()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range survivors[:cfg.RecoveryThreshold()] {
		share, err := clients[id].AggregateShare(survivors)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddAggShare(AggShareMsg{From: id, S: share}); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := server.SealAggShares()
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, sum, wantSum(nil))
	if _, err := server.SealAggShares(); err == nil {
		t.Fatal("second SealAggShares accepted")
	}
	checkSum(t, sum, wantSum(nil))
}

// TestRoundDropDuringRecovery: survivors beyond the recovery threshold may
// also vanish before answering the one-shot recovery; the round still
// completes from any U responses.
func TestRoundDropDuringRecovery(t *testing.T) {
	cfg := testConfig(8, 2, 2, 16) // U = 6
	inputs, wantSum := makeInputs(cfg)
	drops := DropSchedule{
		3: StageMaskedInput, // 7 survivors ≥ U
		7: StageAggShare,    // 6 responders = U exactly
	}
	got, err := RunWithSessions(cfg, inputs, drops, rng("recdrop"), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(map[uint64]bool{3: true}))
}

func TestRoundAbortsBeyondTolerance(t *testing.T) {
	cfg := testConfig(6, 1, 1, 8) // U = 5
	inputs, _ := makeInputs(cfg)
	drops := DropSchedule{1: StageMaskedInput, 4: StageMaskedInput} // 2 > D = 1
	if _, err := RunWithSessions(cfg, inputs, drops, rng("over"), nil); err == nil {
		t.Fatal("expected abort when dropouts exceed tolerance")
	}
}

func TestRoundAbortsWhenRecoveryStarved(t *testing.T) {
	cfg := testConfig(6, 1, 1, 8) // U = 5
	inputs, _ := makeInputs(cfg)
	drops := DropSchedule{1: StageAggShare, 2: StageAggShare} // 4 responders < U
	if _, err := RunWithSessions(cfg, inputs, drops, rng("starve"), nil); err == nil {
		t.Fatal("expected abort when recovery responses fall below U")
	}
}

// TestRoundAbortsOnOfflineDrop: the offline phase needs every sampled
// client (DropSchedule), so a drop before StageAdvertise or StageShares
// aborts the round — on fresh sessions, and on the second sub-round of one
// RoundSessions, which resumes from the cached roster and skips advertise.
func TestRoundAbortsOnOfflineDrop(t *testing.T) {
	cfg := testConfig(6, 1, 2, 8)
	inputs, _ := makeInputs(cfg)
	for _, stage := range []Stage{StageAdvertise, StageShares} {
		drops := DropSchedule{4: stage}
		t.Run(stage.String()+"/fresh", func(t *testing.T) {
			sess, err := NewRoundSessions(cfg.ClientIDs, rng("offline-keys"))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Release()
			if sum, err := RunWithSessions(cfg, inputs, drops, rng("offline-fresh"), sess); err == nil {
				t.Fatalf("a drop before %s completed the round with sum %v", stage, sum)
			}
		})
		t.Run(stage.String()+"/resumed", func(t *testing.T) {
			sess, err := NewRoundSessions(cfg.ClientIDs, rng("offline-keys"))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Release()
			if _, err := RunWithSessions(cfg, inputs, nil, rng("offline-r1"), sess); err != nil {
				t.Fatal(err)
			}
			if !sess.resumable(cfg) {
				t.Fatal("the second sub-round would not resume")
			}
			if sum, err := RunWithSessions(cfg, inputs, drops, rng("offline-r2"), sess); err == nil {
				t.Fatalf("a drop before %s completed the resumed round with sum %v", stage, sum)
			}
		})
	}
}

// TestRoundIndependentOfWorkers: the round's stages fan their clients out
// over GOMAXPROCS workers, so the exact sum must not depend on how many
// there are, with drops before the masked upload and before the recovery.
func TestRoundIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := testConfig(9, 2, 3, 21) // U = 6
	inputs, wantSum := makeInputs(cfg)
	drops := DropSchedule{2: StageMaskedInput, 7: StageMaskedInput, 3: StageAggShare}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, sess := range []*RoundSessions{nil, mustRoundSessions(t, cfg)} {
			for sub := range 2 {
				got, err := RunWithSessions(cfg, inputs, drops, rng(fmt.Sprintf("workers-%d-%d", procs, sub)), sess)
				if err != nil {
					t.Fatalf("GOMAXPROCS %d, sub-round %d: %v", procs, sub, err)
				}
				checkSum(t, got, wantSum(map[uint64]bool{2: true, 7: true}))
			}
			sess.Release()
		}
	}
}

// TestRoundNamesFailingClient: a client whose step fails aborts the round
// with an error that names the client and the stage it failed in.
func TestRoundNamesFailingClient(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := testConfig(6, 1, 1, 8)
	inputs, _ := makeInputs(cfg)
	inputs[4] = inputs[4][:cfg.Dim-1]
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		sum, err := RunWithSessions(cfg, inputs, nil, rng("failing"), nil)
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: a short input completed the round with sum %v", procs, sum)
		}
		if msg := err.Error(); !strings.Contains(msg, "client 4 ") || !strings.Contains(msg, StageMaskedInput.String()) {
			t.Errorf("GOMAXPROCS %d: error %q does not name client 4 and stage %s", procs, msg, StageMaskedInput)
		}
	}
}

func mustRoundSessions(t *testing.T, cfg Config) *RoundSessions {
	t.Helper()
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("round-sessions"))
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestShareConsistency: interpolating a client's own shares at the data
// points recovers its mask — the MDS property the recovery step relies on.
func TestShareConsistency(t *testing.T) {
	cfg := testConfig(5, 1, 1, 12) // U = 4, parts = 3
	c, err := NewSessionClient(cfg, 3, rng("consist"), nil)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := c.EncodeShares()
	if err != nil {
		t.Fatal(err)
	}
	u := cfg.RecoveryThreshold()
	xs := make([]field.Element, u)
	ys := make([][]field.Element, u)
	for i := 0; i < u; i++ {
		xs[i] = cfg.alpha(i)
		ys[i] = shares[cfg.ClientIDs[i]]
	}
	basis, err := field.NewLagrangeBasis(xs)
	if err != nil {
		t.Fatal(err)
	}
	l := cfg.SubVectorLen()
	parts := u - cfg.PrivacyT
	for k := 0; k < parts; k++ {
		ws := basis.WeightsAt(cfg.beta(k + 1))
		for tt := 0; tt < l; tt++ {
			var got field.Element
			for i := range xs {
				got = field.Add(got, field.Mul(ws[i], ys[i][tt]))
			}
			if got != c.random[k*l+tt] {
				t.Fatalf("piece %d coord %d: interpolated %v, mask %v", k, tt, got, c.random[k*l+tt])
			}
		}
	}
}

// TestPrivacyTSharesUniform: with privacy threshold T, any T shares are
// uniformly distributed regardless of the mask — checked empirically by
// comparing the first share byte distribution across two clients with
// maximally different masks. This is a smoke check of the Lagrange-coding
// noise padding, not a proof.
func TestPrivacyTSharesUniform(t *testing.T) {
	cfg := testConfig(5, 2, 1, 4) // T = 2 noise pieces
	const trials = 2000
	var lowBitOnes int
	for i := 0; i < trials; i++ {
		c, err := NewSessionClient(cfg, 1, rng(fmt.Sprintf("priv%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := c.EncodeShares()
		if err != nil {
			t.Fatal(err)
		}
		if shares[2][0].Uint64()&1 == 1 {
			lowBitOnes++
		}
	}
	frac := float64(lowBitOnes) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("share low bit frequency %.3f, want ≈0.5 (uniformity)", frac)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		testConfig(1, 0, 0, 4),                 // too few clients
		testConfig(4, 0, 0, 0),                 // dim 0
		testConfig(4, -1, 0, 4),                // negative T
		testConfig(4, 0, -1, 4),                // negative D
		testConfig(4, 2, 2, 4),                 // U = 2 ≤ T = 2
		{ClientIDs: []uint64{3, 3, 4}, Dim: 4}, // duplicate ids
		{ClientIDs: []uint64{4, 3, 5}, Dim: 4}, // unsorted ids
	}
	// RunWithSessions validates once and builds its parties on the config
	// it validated; each public constructor refuses on its own.
	for i, cfg := range bad {
		inputs := make(map[uint64][]field.Element, len(cfg.ClientIDs))
		for _, id := range cfg.ClientIDs {
			inputs[id] = make([]field.Element, cfg.Dim)
		}
		for name, build := range map[string]func() error{
			"Validate": cfg.Validate,
			"NewSessionClient": func() error {
				_, err := NewSessionClient(cfg, cfg.ClientIDs[0], rng("bad"), nil)
				return err
			},
			"NewSessionServer": func() error {
				_, err := NewSessionServer(cfg, nil)
				return err
			},
			"RunWithSessions": func() error {
				_, err := RunWithSessions(cfg, inputs, nil, rng("bad"), nil)
				return err
			},
		} {
			if err := build(); err == nil {
				t.Errorf("case %d: %s accepted %+v", i, name, cfg)
			}
		}
	}
	if err := testConfig(6, 2, 2, 10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGeometry(t *testing.T) {
	cfg := testConfig(8, 2, 3, 100) // U = 5, parts = 3
	if got := cfg.RecoveryThreshold(); got != 5 {
		t.Errorf("U = %d, want 5", got)
	}
	if got := cfg.SubVectorLen(); got != 34 { // ceil(100/3)
		t.Errorf("L = %d, want 34", got)
	}
	if got := (cfg.RecoveryThreshold() - cfg.PrivacyT) * cfg.SubVectorLen(); got != 102 {
		t.Errorf("padded = %d, want 102", got)
	}
}

func TestLiftCenterRoundTrip(t *testing.T) {
	f := func(v int32) bool {
		return Center(Lift(int64(v))) == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestLiftAdditive: Lift is a homomorphism — sums in ℤ map to sums in F.
func TestLiftAdditive(t *testing.T) {
	f := func(a, b int32) bool {
		lhs := field.Add(Lift(int64(a)), Lift(int64(b)))
		return Center(lhs) == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickRoundRandomDropouts: property test — for random geometry and
// any dropout set within tolerance, the round reproduces the survivors'
// exact sum.
func TestQuickRoundRandomDropouts(t *testing.T) {
	f := func(seed uint64, nQ, tQ, dQ uint8) bool {
		n := int(nQ%6) + 4         // 4..9
		T := int(tQ) % (n / 2)     // keep U > T feasible
		D := int(dQ) % (n - T - 1) // n − D > T
		cfg := testConfig(n, T, D, 9)
		inputs, wantSum := makeInputs(cfg)
		s := prg.NewStream(prg.NewSeed([]byte{byte(seed), byte(seed >> 8), byte(nQ), byte(tQ), byte(dQ)}))
		drops, dropped := DropSchedule{}, map[uint64]bool{}
		for _, id := range cfg.ClientIDs {
			if len(drops) < D && s.Uint64n(2) == 1 {
				drops[id], dropped[id] = StageMaskedInput, true
			}
		}
		got, err := RunWithSessions(cfg, inputs, drops, s, nil)
		if err != nil {
			return false
		}
		want := wantSum(dropped)
		for i := range want {
			if Center(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestClientCost(t *testing.T) {
	cfg := testConfig(100, 10, 10, 1_000_000) // U = 90, parts = 80
	c, err := ClientCost(cfg, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	l := float64(cfg.SubVectorLen())
	if want := 100 * l * 8; c.OfflineShareBytes != want {
		t.Errorf("offline share bytes %.0f, want %.0f", c.OfflineShareBytes, want)
	}
	if want := 1_000_000 * 2.5; c.MaskedUploadBytes != want {
		t.Errorf("masked upload bytes %.0f, want %.0f", c.MaskedUploadBytes, want)
	}
	if c.Total() <= c.MaskedUploadBytes {
		t.Error("total must exceed the masked upload alone")
	}
	// The §2.3.2 claim: share traffic grows linearly with the model.
	cfg2 := cfg
	cfg2.Dim = 2 * cfg.Dim
	c2, err := ClientCost(cfg2, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if c2.OfflineShareBytes < 1.9*c.OfflineShareBytes {
		t.Errorf("share traffic should scale with model size: %v then %v",
			c.OfflineShareBytes, c2.OfflineShareBytes)
	}
	if _, err := ClientCost(cfg, 0); err == nil {
		t.Error("expected error for non-positive weightBytes")
	}
}

// TestEncodeSharesBlockedMatchesNaive: the cache-blocked deferred-
// reduction encoding is value-identical to a per-rank Mul/Add loop over
// the encoding matrix's rows — ranks below T take their noise piece, the
// rest one row each — across privacy thresholds and sub-vector lengths
// that straddle the tile sizes.
func TestEncodeSharesBlockedMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, T, D, dim int }{
		{5, 1, 1, 7},      // L = 3: tiny tail tile
		{6, 0, 2, 40},     // T = 0: no free share
		{8, 2, 2, 1024},   // L = 256
		{10, 3, 3, 4100},  // L straddles weightedSumTile
		{16, 4, 4, 16384}, // L = 2048: multiple encTile blocks
	} {
		cfg := testConfig(tc.n, tc.T, tc.D, tc.dim)
		c, err := NewSessionClient(cfg, 1, rng(fmt.Sprintf("enc-eq-%d-%d", tc.n, tc.dim)), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodeShares()
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.encodeSharesNaive()
		if err != nil {
			t.Fatal(err)
		}
		for id, w := range want {
			g := got[id]
			if len(g) != len(w) {
				t.Fatalf("n=%d dim=%d: share %d length %d, want %d", tc.n, tc.dim, id, len(g), len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					t.Fatalf("n=%d dim=%d: share %d coord %d: blocked %v, naive %v",
						tc.n, tc.dim, id, i, g[i], w[i])
				}
			}
		}
	}
}

// encodeSharesNaive is the unblocked reference encoding (one rank at a
// time, Mul+Add per term), the oracle of
// TestEncodeSharesBlockedMatchesNaive. Noise piece r is f_i(α_r), so rank
// r < T has no matrix row.
func (c *Client) encodeSharesNaive() (map[uint64][]field.Element, error) {
	enc, err := c.session.matrix(c.cfg)
	if err != nil {
		return nil, err
	}
	l, u, T := c.cfg.SubVectorLen(), c.cfg.RecoveryThreshold(), c.cfg.PrivacyT
	if len(enc.w) != len(c.cfg.ClientIDs)-T {
		return nil, fmt.Errorf("encoding matrix has %d rows, want n−T = %d", len(enc.w), len(c.cfg.ClientIDs)-T)
	}
	out := make(map[uint64][]field.Element, len(c.cfg.ClientIDs))
	for rank, id := range c.cfg.ClientIDs {
		share := make([]field.Element, l)
		if rank < T {
			copy(share, c.random[(u-T+rank)*l:])
			out[id] = share
			continue
		}
		for k, w := range enc.w[rank-T] {
			piece := c.random[k*l:]
			for t := 0; t < l; t++ {
				share[t] = field.Add(share[t], field.Mul(w, piece[t]))
			}
		}
		out[id] = share
	}
	return out, nil
}

// TestFreeSharesOnOnePolynomial: for T = 0, 1 and U−1, every client's
// shares for ranks below T are its noise pieces exactly, all n shares lie
// on one polynomial of degree < U, and every U of them interpolate to mask
// piece k at β_k. The interpolation is field.LagrangeInterpolateAt, not
// the package's basis.
func TestFreeSharesOnOnePolynomial(t *testing.T) {
	const n, d = 7, 2 // U = 5
	u := n - d
	for _, T := range []int{0, 1, u - 1} {
		cfg := testConfig(n, T, d, 2*(u-T)+1) // L = 3, a padded mask
		l := cfg.SubVectorLen()
		alphas := make([]field.Element, n)
		for rank := range alphas {
			alphas[rank] = cfg.alpha(rank)
		}
		for _, id := range cfg.ClientIDs {
			c, err := NewSessionClient(cfg, id, rng(fmt.Sprintf("free-%d-%d", T, id)), nil)
			if err != nil {
				t.Fatal(err)
			}
			shares, err := c.EncodeShares()
			if err != nil {
				t.Fatal(err)
			}
			for rank := range T {
				if noise := c.random[(u-T+rank)*l : (u-T+rank+1)*l]; !slices.Equal(shares[cfg.ClientIDs[rank]], noise) {
					t.Fatalf("T=%d client %d: share of rank %d is %v, want its noise piece %v",
						T, id, rank, shares[cfg.ClientIDs[rank]], noise)
				}
			}
			for coord := range l {
				ys := make([]field.Element, n)
				for rank, rid := range cfg.ClientIDs {
					ys[rank] = shares[rid][coord]
				}
				for rank := u; rank < n; rank++ {
					got, err := field.LagrangeInterpolateAt(alphas[:u], ys[:u], alphas[rank])
					if err != nil {
						t.Fatal(err)
					}
					if got != ys[rank] {
						t.Fatalf("T=%d client %d coord %d: share of rank %d is off the polynomial through ranks < U",
							T, id, coord, rank)
					}
				}
				for _, sub := range subsets(n, u) {
					xs, vs := make([]field.Element, u), make([]field.Element, u)
					for i, rank := range sub {
						xs[i], vs[i] = alphas[rank], ys[rank]
					}
					for k := range u - T {
						got, err := field.LagrangeInterpolateAt(xs, vs, cfg.beta(k+1))
						if err != nil {
							t.Fatal(err)
						}
						if want := c.random[k*l+coord]; got != want {
							t.Fatalf("T=%d client %d coord %d: ranks %v interpolate %v at β_%d, mask piece %v",
								T, id, coord, sub, got, k+1, want)
						}
					}
				}
			}
		}
	}
}

// subsets returns every k-element subset of 0..n−1, ascending.
func subsets(n, k int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for last := k - 1; last < n; last++ {
		for _, s := range subsets(last, k-1) {
			out = append(out, append(s, last))
		}
	}
	return out
}
