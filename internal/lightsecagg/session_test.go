package lightsecagg

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/field"
	"repro/internal/transport"
)

// TestSessionsAmortizeAgreements: m sub-rounds on one session set perform
// the X25519 work of one sub-round — key pairs generate once per client
// and pairwise channel secrets agree once per (pair, direction) — while
// session-less sub-rounds pay everything m times. Results stay exact.
func TestSessionsAmortizeAgreements(t *testing.T) {
	const subRounds = 3
	cfg := testConfig(6, 2, 2, 24)
	inputs, wantSum := makeInputs(cfg)

	g0, a0 := dh.GenerateCount(), dh.AgreeCount()
	for i := 0; i < subRounds; i++ {
		got, err := RunWithSessions(cfg, inputs, nil, rng("fresh"), nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSum(t, got, wantSum(nil))
	}
	freshGens := dh.GenerateCount() - g0
	freshAgrees := dh.AgreeCount() - a0

	sess, err := NewRoundSessions(cfg.ClientIDs, rng("sess"))
	if err != nil {
		t.Fatal(err)
	}
	g0, a0 = dh.GenerateCount(), dh.AgreeCount()
	for i := 0; i < subRounds; i++ {
		got, err := RunWithSessions(cfg, inputs, nil, rng("shared"), sess)
		if err != nil {
			t.Fatal(err)
		}
		checkSum(t, got, wantSum(nil))
	}
	sharedGens := dh.GenerateCount() - g0
	sharedAgrees := dh.AgreeCount() - a0

	if sharedGens != 0 {
		t.Errorf("shared sessions generated %d key pairs mid-round, want 0 (NewRoundSessions pre-generates)", sharedGens)
	}
	if freshGens != uint64(subRounds*len(cfg.ClientIDs)) {
		t.Errorf("fresh path generated %d key pairs, want %d", freshGens, subRounds*len(cfg.ClientIDs))
	}
	// Fresh: every sub-round re-agrees everything. Shared: only the first
	// sub-round agrees (subsequent ones hit the cache). Allow slack for
	// concurrent duplicate cache fills (bounded, deterministic value).
	if sharedAgrees*2 > freshAgrees {
		t.Errorf("shared sessions agreed %d times vs %d fresh — no amortization", sharedAgrees, freshAgrees)
	}
}

// TestSessionsSkipAdvertiseOnResume: the second in-process round on a
// session set resumes from the cached roster — observable as zero
// agreements and an identical exact sum.
func TestSessionsSkipAdvertiseOnResume(t *testing.T) {
	cfg := testConfig(5, 1, 1, 16)
	inputs, wantSum := makeInputs(cfg)
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("resume-keys"))
	if err != nil {
		t.Fatal(err)
	}
	if sess.resumable(cfg) {
		t.Fatal("fresh sessions must not be resumable before a sealed roster exists")
	}
	got, err := RunWithSessions(cfg, inputs, nil, rng("resume-r1"), sess)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(nil))
	if !sess.resumable(cfg) {
		t.Fatal("sessions must be resumable after the first completed round")
	}

	a0 := dh.AgreeCount()
	got, err = RunWithSessions(cfg, inputs, nil, rng("resume-r2"), sess)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(nil))
	if agrees := dh.AgreeCount() - a0; agrees != 0 {
		t.Errorf("resumed round performed %d agreements, want 0", agrees)
	}
}

// TestCachedRosterResumes: a cached roster resumes a sub-round only for
// the id set it was sealed for, only when it lists every one of them, and
// only while every client session still advertises the cached channel key.
func TestCachedRosterResumes(t *testing.T) {
	cfg := testConfig(4, 1, 1, 16)
	ids := cfg.ClientIDs
	sess, err := NewRoundSessions(ids, rng("cached-roster"))
	if err != nil {
		t.Fatal(err)
	}
	advertised := func() []AdvertiseMsg {
		roster := make([]AdvertiseMsg, len(ids))
		for i, id := range ids {
			roster[i] = AdvertiseMsg{From: id, CipherPub: sess.Client[id].PublicBytes()}
		}
		return roster
	}
	roster := advertised()
	sess.Server.StoreRoster(roster, ids)
	roster[0].From = 99 // the cache holds its own copy
	if !sess.resumable(cfg) {
		t.Fatal("a roster sealed for the round's clients, on their keys, must resume")
	}
	for _, other := range [][]uint64{ids[:3], {2, 1, 3, 4}, {1, 2, 3, 4, 5}} {
		if sess.Server.RosterFor(other) != nil {
			t.Errorf("RosterFor(%v) answered for a roster sealed for %v", other, ids)
		}
		o := cfg
		o.ClientIDs = other
		if sess.resumable(o) {
			t.Errorf("resumable over %v on a roster sealed for %v", other, ids)
		}
	}

	sess.Server.StoreRoster(advertised()[:3], ids)
	if sess.resumable(cfg) {
		t.Error("resumable on a roster missing a sampled client")
	}
	sess.Server.StoreRoster(advertised(), ids)
	rekeyed, err := NewSession(rng("cached-roster-rekey"))
	if err != nil {
		t.Fatal(err)
	}
	sess.Client[2] = rekeyed
	if sess.resumable(cfg) {
		t.Error("resumable although client 2's session advertises another key")
	}
	delete(sess.Client, 2)
	if sess.resumable(cfg) {
		t.Error("resumable although client 2 has no session")
	}
	var none *RoundSessions
	if none.resumable(cfg) {
		t.Error("no sessions resumed")
	}
}

// TestSessionsResumeWithDropouts: a resumed round still handles the §6.1
// dropout model — and because LightSecAgg's server never reconstructs
// client keys, the dropper's session stays valid for the round after.
func TestSessionsResumeWithDropouts(t *testing.T) {
	cfg := testConfig(6, 1, 2, 16)
	inputs, wantSum := makeInputs(cfg)
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("drop-keys"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithSessions(cfg, inputs, nil, rng("drop-r1"), sess); err != nil {
		t.Fatal(err)
	}
	drops := DropSchedule{3: StageMaskedInput, 5: StageAggShare}
	got, err := RunWithSessions(cfg, inputs, drops, rng("drop-r2"), sess)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(map[uint64]bool{3: true}))
	// Third round: the round-2 dropper participates again on the same
	// session set.
	got, err = RunWithSessions(cfg, inputs, nil, rng("drop-r3"), sess)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, got, wantSum(nil))
}

// TestEncodingMatrixCached: EncodeShares through one session computes the
// Lagrange basis once; the second call reuses the pointer-identical
// matrix.
func TestEncodingMatrixCached(t *testing.T) {
	cfg := testConfig(6, 2, 2, 24)
	sess, err := NewSession(rng("mat"))
	if err != nil {
		t.Fatal(err)
	}
	m1, err := sess.matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sess.matrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("matrix recomputed for identical geometry")
	}
	// A different geometry invalidates the cache: a different T alone —
	// the noise pieces sit at α_0..α_{T−1}, so T moves the abscissas and
	// the rows — and a different U.
	for _, cfg2 := range []Config{testConfig(6, 1, 2, 24), testConfig(6, 1, 3, 24)} {
		m3, err := sess.matrix(cfg2)
		if err != nil {
			t.Fatal(err)
		}
		if m3 == m1 || m3.t != cfg2.PrivacyT || m3.u != cfg2.RecoveryThreshold() {
			t.Errorf("matrix not recomputed for n=%d U=%d T=%d", len(cfg2.ClientIDs), cfg2.RecoveryThreshold(), cfg2.PrivacyT)
		}
	}
}

// TestSessionsAcrossPrivacyThresholds: one session set serves two configs
// that differ only in T, and both sums are exact — the cached encoding
// matrix of the first must not encode the second's shares.
func TestSessionsAcrossPrivacyThresholds(t *testing.T) {
	sess, err := NewRoundSessions(testConfig(6, 1, 2, 20).ClientIDs, rng("t-keys"))
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []int{1, 2} {
		cfg := testConfig(6, T, 2, 20)
		cfg.Round = uint64(T)
		inputs, wantSum := makeInputs(cfg)
		got, err := RunWithSessions(cfg, inputs, DropSchedule{4: StageAggShare}, rng(fmt.Sprintf("t-%d", T)), sess)
		if err != nil {
			t.Fatalf("T=%d: %v", T, err)
		}
		checkSum(t, got, wantSum(nil))
	}
}

// TestSubRoundAgreesWithPeersOnly: a client keeps its own share instead of
// sealing it to itself, so a fresh sub-round agrees exactly once per
// ordered pair of distinct clients — n·(n−1) X25519 agreements — whether
// its sessions are throwaway or a new session set, and a resumed one none.
func TestSubRoundAgreesWithPeersOnly(t *testing.T) {
	cfg := testConfig(6, 2, 2, 24)
	n := uint64(len(cfg.ClientIDs))
	inputs, wantSum := makeInputs(cfg)
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("peers-keys"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sess  *RoundSessions
		agree uint64
	}{
		{"throwaway sessions", nil, n * (n - 1)},
		{"fresh session set", sess, n * (n - 1)},
		{"resumed session set", sess, 0},
	} {
		a0 := dh.AgreeCount()
		got, err := RunWithSessions(cfg, inputs, nil, rng("peers-"+tc.name), tc.sess)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkSum(t, got, wantSum(nil))
		if agrees := dh.AgreeCount() - a0; agrees != tc.agree {
			t.Errorf("%s: %d agreements, want %d", tc.name, agrees, tc.agree)
		}
	}
}

// TestEnvelopeRoundDomainSeparation: sessions make channel keys
// long-lived, so the envelope AD must bind the round — an envelope
// sealed in one (sub-)round must fail authentication when replayed into
// another round on the same session keys.
func TestEnvelopeRoundDomainSeparation(t *testing.T) {
	cfg := testConfig(3, 1, 1, 6)
	cfg.Round = 1
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("ad-keys"))
	if err != nil {
		t.Fatal(err)
	}
	mkClient := func(id uint64, round uint64) *Client {
		c := cfg
		c.Round = round
		cl, err := NewSessionClient(c, id, rng("ad-cl"), sess.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	a := mkClient(1, 1)
	roster := []AdvertiseMsg{}
	for _, id := range cfg.ClientIDs {
		roster = append(roster, AdvertiseMsg{From: id, CipherPub: sess.Client[id].PublicBytes()})
	}
	envs, err := a.SealShares(roster)
	if err != nil {
		t.Fatal(err)
	}
	var toB *Envelope
	for i := range envs {
		if envs[i].To == 2 {
			toB = &envs[i]
		}
	}

	// Same round: opens fine.
	b1 := mkClient(2, 1)
	if _, err := b1.SealShares(roster); err != nil {
		t.Fatal(err)
	}
	if err := b1.OpenEnvelopes([]Envelope{*toB}); err != nil {
		t.Fatalf("same-round envelope rejected: %v", err)
	}

	// Replayed into round 2 on the same session keys: must fail auth.
	b2 := mkClient(2, 2)
	if _, err := b2.SealShares(roster); err != nil {
		t.Fatal(err)
	}
	if err := b2.OpenEnvelopes([]Envelope{*toB}); err == nil {
		t.Fatal("cross-round envelope replay authenticated — AD does not bind the round")
	}
}

// TestSessionKeepsClientSlabs: a session keeps its client's random,
// received and ciphertext slabs across sub-rounds, re-slices them to each
// sub-round's geometry and grows them only when it outgrows them — four
// sub-rounds with drops at Dim 4096, 4096, 1000 and 5000 reuse one client's
// backing arrays three times and make them anew once, and every sum is
// exact.
func TestSessionKeepsClientSlabs(t *testing.T) {
	cfg := testConfig(8, 2, 2, 0) // U = 6, L = ⌈Dim/4⌉
	sess, err := NewRoundSessions(cfg.ClientIDs, rng("slab-keys"))
	if err != nil {
		t.Fatal(err)
	}
	drops := DropSchedule{3: StageMaskedInput, 6: StageAggShare}
	client := sess.Client[1]
	arrays := func() [3]any {
		sc := client.scratch
		return [3]any{&sc.words[0], &sc.received[0], &sc.sealed[0]}
	}
	var first [3]any
	for i, dim := range []int{4096, 4096, 1000, 5000} {
		cfg.Dim, cfg.Round = dim, uint64(i)
		inputs, wantSum := makeInputs(cfg)
		got, err := RunWithSessions(cfg, inputs, drops, rng(fmt.Sprintf("slab-%d", i)), sess)
		if err != nil {
			t.Fatalf("sub-round %d (Dim %d): %v", i, dim, err)
		}
		checkSum(t, got, wantSum(map[uint64]bool{3: true}))

		n, l := len(cfg.ClientIDs), cfg.SubVectorLen()
		sc := client.scratch
		if len(sc.words) != cfg.RecoveryThreshold()*l || len(sc.received) != n*l || len(sc.sealed) != (n-1)*(4+8*l+aead.Overhead) {
			t.Fatalf("sub-round %d (Dim %d): slabs of %d, %d and %d, not this geometry's", i, dim, len(sc.words), len(sc.received), len(sc.sealed))
		}
		now := arrays()
		for k, name := range []string{"random", "received", "ciphertext"} {
			switch {
			case i == 0:
			case i < 3 && now[k] != first[k]:
				t.Errorf("sub-round %d (Dim %d): the %s slab moved", i, dim, name)
			case i == 3 && now[k] == first[k]:
				t.Errorf("sub-round %d (Dim %d): the %s slab did not grow", i, dim, name)
			}
		}
		if i == 0 {
			first = now
		}
	}
}

// lagrangeWeightsTextbook is the per-row reference the basis form is
// checked against: w_k = Π_{m≠k}(x−xs_m)/(xs_k−xs_m), numerator and
// denominator multiplied out afresh and one inversion for every weight.
func lagrangeWeightsTextbook(t *testing.T, xs []field.Element, x field.Element) []field.Element {
	t.Helper()
	ws := make([]field.Element, len(xs))
	for k := range xs {
		num, den := field.New(1), field.New(1)
		for m := range xs {
			if m != k {
				num = field.Mul(num, field.Sub(x, xs[m]))
				den = field.Mul(den, field.Sub(xs[k], xs[m]))
			}
		}
		inv, err := field.Inv(den)
		if err != nil {
			t.Fatal(err)
		}
		ws[k] = field.Mul(num, inv)
	}
	return ws
}

// TestRecoveryWeightsMatchReference: the once-per-abscissa-set basis gives
// exactly the textbook weights — for recovery cohorts with gaps, in any
// order, and for every row of the encoding matrix (one per rank ≥ T) — and
// an unknown responder is still refused.
func TestRecoveryWeightsMatchReference(t *testing.T) {
	cfg := testConfig(10, 3, 3, 64) // U = 7, parts = 4
	for _, cohort := range [][]uint64{
		{1, 2, 3, 4, 5, 6, 7},
		{1, 2, 3, 4, 5, 6, 9},  // a gap at the tail
		{2, 4, 5, 6, 8, 9, 10}, // gaps throughout
		{9, 2, 10, 4, 6, 8, 5}, // admission order, not sorted
	} {
		got, err := recoveryWeights(cfg, cohort)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != cfg.RecoveryThreshold()-cfg.PrivacyT {
			t.Fatalf("cohort %v: %d weight rows, want U−T = %d", cohort, len(got), cfg.RecoveryThreshold()-cfg.PrivacyT)
		}
		xs := make([]field.Element, len(cohort))
		for i, id := range cohort {
			rank, _ := cfg.rank(id)
			xs[i] = cfg.alpha(rank)
		}
		for k := range got {
			if want := lagrangeWeightsTextbook(t, xs, cfg.beta(k+1)); !slices.Equal(got[k], want) {
				t.Fatalf("cohort %v row %d: weights %v, want %v", cohort, k, got[k], want)
			}
		}
	}
	if _, err := recoveryWeights(cfg, []uint64{1, 2, 3, 4, 5, 6, 11}); err == nil {
		t.Fatal("a responder outside the client set got recovery weights")
	}

	// The encoding matrix interpolates from the mask pieces at β_1..β_{U−T}
	// and the noise pieces at α_0..α_{T−1}; ranks below T, whose shares
	// are noise pieces, have no row.
	enc, err := newEncodingMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var xs []field.Element
	for k := 1; k <= cfg.RecoveryThreshold()-cfg.PrivacyT; k++ {
		xs = append(xs, cfg.beta(k))
	}
	for r := range cfg.PrivacyT {
		xs = append(xs, cfg.alpha(r))
	}
	if len(enc.w) != len(cfg.ClientIDs)-cfg.PrivacyT {
		t.Fatalf("encoding matrix has %d rows, want n−T = %d", len(enc.w), len(cfg.ClientIDs)-cfg.PrivacyT)
	}
	for rank := cfg.PrivacyT; rank < len(cfg.ClientIDs); rank++ {
		if want := lagrangeWeightsTextbook(t, xs, cfg.alpha(rank)); !slices.Equal(enc.w[rank-cfg.PrivacyT], want) {
			t.Fatalf("encoding matrix row of rank %d: %v, want %v", rank, enc.w[rank-cfg.PrivacyT], want)
		}
	}
}

// TestRoundSessionsReleaseScratch: Release hands every client session's
// random, received, aggregate and ciphertext slabs back to elems and
// ciphertexts (ARCHITECTURE.md, "Round scratch"). On lists of the test's
// own: after a round on one session set and its Release, no session holds
// a slab, and a second set's round of the same geometry runs in the first
// set's slabs (the lists are last in, first out) though they were filled
// with garbage in between, with an exact sum; the first round's sum, read
// after the second ran, is unchanged (a -race build poisons what Release
// takes back); and a round that fails after its clients leased (too few
// recovery responses) hands its slabs back too.
func TestRoundSessionsReleaseScratch(t *testing.T) {
	// Lists of their own: what earlier tests handed back could fill the
	// shared ones, which then drop what this test's rounds release.
	defer func(e *transport.FreeList[field.Element], c *transport.FreeList[byte]) { elems, ciphertexts = e, c }(elems, ciphertexts)
	elems = transport.NewFreeList[field.Element](1<<20, 1<<20)
	ciphertexts = transport.NewFreeList[byte](1<<22, 1<<22)

	cfg := testConfig(8, 2, 2, 1000) // U = 6, L = 250
	inputs, wantSum := makeInputs(cfg)
	drops := DropSchedule{3: StageMaskedInput}
	want := wantSum(map[uint64]bool{3: true})
	// round runs round i on a fresh session set, releases it and returns
	// the slabs its clients held, by first word.
	type held struct {
		elems map[*field.Element][]field.Element
		bytes map[*byte][]byte
	}
	round := func(i int, drops DropSchedule) ([]field.Element, held, error) {
		t.Helper()
		rs, err := NewRoundSessions(cfg.ClientIDs, rng(fmt.Sprintf("release-keys-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Round = uint64(i)
		sum, err := RunWithSessions(cfg, inputs, drops, rng(fmt.Sprintf("release-%d", i)), rs)
		h := held{make(map[*field.Element][]field.Element), make(map[*byte][]byte)}
		for _, s := range rs.Client {
			for _, xs := range [][]field.Element{s.scratch.words, s.scratch.received, s.scratch.agg} {
				h.elems[&xs[0]] = xs
			}
			h.bytes[&s.scratch.sealed[0]] = s.scratch.sealed
		}
		rs.Release()
		for id, s := range rs.Client {
			if sc := s.scratch; sc.words != nil || sc.received != nil || sc.agg != nil || sc.sealed != nil {
				t.Fatalf("round %d: client %d's session kept a slab after Release", i, id)
			}
		}
		return sum, h, err
	}
	same := func(a, b held) bool {
		if len(a.elems) != len(b.elems) || len(a.bytes) != len(b.bytes) {
			return false
		}
		for p := range a.elems {
			if b.elems[p] == nil {
				return false
			}
		}
		for p := range a.bytes {
			if b.bytes[p] == nil {
				return false
			}
		}
		return true
	}

	first, h, err := round(1, drops)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, first, want)
	if n := len(cfg.ClientIDs); len(h.elems) != 3*n || len(h.bytes) != n {
		t.Fatalf("%d word and %d byte slabs for %d clients", len(h.elems), len(h.bytes), n)
	}
	for _, xs := range h.elems {
		for i := range xs {
			xs[i] = field.Element(0x5A5A5A5A5A5A5A5A ^ uint64(i))
		}
	}
	for _, b := range h.bytes {
		for i := range b {
			b[i] = byte(0x5A ^ i)
		}
	}
	second, again, err := round(2, drops)
	if err != nil {
		t.Fatal(err)
	}
	if !same(h, again) {
		t.Fatal("the second round did not run in the first round's slabs")
	}
	checkSum(t, second, want)
	checkSum(t, first, want)

	late := DropSchedule{4: StageAggShare, 5: StageAggShare, 6: StageAggShare}
	if _, failed, err := round(3, late); err == nil {
		t.Fatal("a round with 5 recovery responses at U = 6 succeeded")
	} else if !same(h, failed) {
		t.Fatal("the failed round did not run in the list's slabs")
	}
	if sum, after, err := round(4, drops); err != nil {
		t.Fatal(err)
	} else if !same(h, after) {
		t.Fatal("the failed round did not hand its slabs back")
	} else {
		checkSum(t, sum, want)
	}
}
