package secagg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dh"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// sessionRand returns a deterministic entropy stream for session tests.
func sessionRand(label string) *prg.Stream {
	return prg.NewStream(prg.NewSeed([]byte("session-test/" + label)))
}

// maskWords fingerprints the pairwise-mask secret the session caches for
// the peer advertising peerPub at ratchet step step: the first keystream
// words of the mask stream it keys.
func (s *Session) maskWords(peerPub []byte, step uint64) ([]uint64, error) {
	stream, err := s.maskStream(peerPub, step)
	if err != nil {
		return nil, err
	}
	return windowWords(stream, Config{Bits: 16, Dim: 1001}, 4), nil
}

// windowWords returns the first n keystream words of the mask window cfg's
// sub-round reads (its MaskEpoch at its Bits and Dim) of stream, leaving
// stream where it was.
func windowWords(stream *prg.Stream, cfg Config, n int) []uint64 {
	out := make([]uint64, n)
	var c prg.Stream
	stream.AtInto(&c, cfg.maskWindow())
	c.FillUint64(out)
	return out
}

// TestGoldenChunkZeroSeedIdentity pins that the session cache's chunk-0
// (epoch-0) mask seed is byte-identical to the non-amortized path: the
// historical derivation NewSeed("dordis/secagg/pairmask/v1", secret) over
// the raw X25519 agreement output. Any change to pairMaskSeed or to the
// session's secret and stream caching must fail here, because that would
// break mask agreement between amortized and classic participants. Later
// epochs read later windows of that one stream, laid end to end: epoch e
// starts at keystream byte e·ring.MaskBytes(Bits, Dim) — here the 16-bit
// ring's 1001 coordinates, 251 words — and epoch 0 at byte 0 as before.
func TestGoldenChunkZeroSeedIdentity(t *testing.T) {
	sess, err := NewSession(sessionRand("keys"))
	if err != nil {
		t.Fatal(err)
	}
	// The non-amortized path uses the very same mask key the session
	// advertises (rebuilt from its private bytes, as the server-side
	// reconstruction would), so any difference below is the derivation's.
	mask, err := dh.FromPrivateBytes(sess.maskKey.PrivateBytes())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := dh.Generate(sessionRand("peer"))
	if err != nil {
		t.Fatal(err)
	}

	// Non-amortized path, written out literally as the golden reference.
	secret, err := mask.Agree(peer.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	legacy := prg.NewSeed([]byte("dordis/secagg/pairmask/v1"), secret[:])
	if got := pairMaskSeed(secret); got != legacy {
		t.Fatalf("chunk-0 seed diverged from the non-amortized path:\n got %x\nwant %x", got, legacy)
	}

	// Amortized path: the session's mask stream at ratchet step 0 is keyed
	// once by the legacy seed, and every epoch reads its window of it.
	stream, err := sess.maskStream(peer.PublicBytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := sess.maskStream(peer.PublicBytes(), 0); err != nil || again != stream {
		t.Fatalf("a second lookup at the same step keyed another stream (%v)", err)
	}
	const windowBytes = 8 * 251
	at := func(epoch uint64) Config { return Config{Bits: 16, Dim: 1001, MaskEpoch: epoch} }
	reference := prg.NewStream(legacy)
	for _, epoch := range []uint64{0, 1, 2} {
		want := make([]uint64, 4)
		reference.Seek(epoch * windowBytes)
		reference.FillUint64(want)
		if got := windowWords(stream, at(epoch), len(want)); !slices.Equal(got, want) {
			t.Fatalf("epoch %d: window words %x, want the legacy stream's from byte %d·%d: %x", epoch, got, epoch, windowBytes, want)
		}
	}
	// Epoch 1 starts where a whole epoch-0 mask leaves the stream.
	whole := ring.NewVector(16, 1001)
	next := prg.NewStream(legacy)
	if err := whole.MaskInPlace(next, 1); err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 4)
	next.FillUint64(want)
	if got := windowWords(stream, at(1), 4); !slices.Equal(got, want) {
		t.Fatalf("epoch 1 does not start where epoch 0's mask stops: %x, want %x", got, want)
	}
	if slices.Equal(windowWords(stream, at(1), 4), windowWords(stream, at(2), 4)) {
		t.Fatal("distinct epochs must read distinct windows")
	}
	if slices.Equal(windowWords(newPairMaskStream(dh.Expand(secret, []byte("x"))), at(1), 4), windowWords(stream, at(1), 4)) {
		t.Fatal("distinct secrets must yield distinct epoch windows")
	}
}

// TestMaskEpochReadsWindow: the sub-round at MaskEpoch e masks with window
// e of each mask's one stream — the epoch-0 stream of the legacy
// derivations (pairMaskSeed's literal for a pair, prg.FromFieldElement(b_u)
// for the self mask) expanded from keystream byte e·ring.MaskBytes(Bits,
// Dim), the windows laid end to end — for e = 0 and for epochs 1 and 7
// that reuse epoch 0's deal, over a dimension that is not a multiple of
// the 16-bit ring's four coordinates per word. b_u comes from the Shamir
// shares the client dealt, as the server recovers it. A config whose mask
// would read more than the window bound, or whose epoch has no window, is
// refused; one that exactly fills the bound at the last epoch is not.
func TestMaskEpochReadsWindow(t *testing.T) {
	const n, dim, u = 4, 1001, 1
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("mask-window")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	for _, epoch := range []uint64{0, 1, 7} {
		c := cfg
		c.MaskEpoch = epoch
		server, clients, _ := steppedSubRound(t, c, inputs, sess, rand, map[uint64]bool{u: true})
		deliveries, err := server.SealShares()
		if err != nil {
			t.Fatal(err)
		}
		m, err := clients[u].MaskedInput(deliveries[u])
		if err != nil {
			t.Fatal(err)
		}

		var selfShares []shamir.Share
		for _, p := range cfg.ClientIDs {
			bundle, err := clients[p].bundleFrom(u)
			if err != nil {
				t.Fatal(err)
			}
			selfShares = append(selfShares, bundle.SelfSeed)
		}
		b, err := shamir.Reconstruct(selfShares, cfg.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		want := inputs[u].Clone()
		window := epoch * ring.MaskBytes(cfg.Bits, dim) // 251 words of 8 bytes
		self := prg.NewStream(prg.FromFieldElement(b))
		self.Seek(window)
		if err := want.MaskInPlace(self, 1); err != nil {
			t.Fatal(err)
		}
		_, maskKey := sess.Client[u].keyPairs()
		for _, v := range cfg.ClientIDs[1:] {
			_, peerKey := sess.Client[v].keyPairs()
			raw, err := maskKey.Agree(peerKey.PublicBytes())
			if err != nil {
				t.Fatal(err)
			}
			pair := prg.NewStream(prg.NewSeed([]byte("dordis/secagg/pairmask/v1"), raw[:]))
			pair.Seek(window)
			if err := want.MaskInPlace(pair, -1); err != nil { // γ_{1,v} = −1 for every v > 1
				t.Fatal(err)
			}
		}
		if !slices.Equal(m.Y, want.Data) {
			t.Fatalf("epoch %d: the masked input is not the input plus window %d of the legacy streams", epoch, epoch)
		}
	}

	per := 64 / cfg.Bits
	for _, tc := range []struct {
		dim   int
		epoch uint64
		ok    bool
	}{
		{int(per) << 29, 1<<32 - 1, true}, // 2^29 words: the bound exactly, ending at byte 2^64
		{int(per)<<29 + 1, 0, false},      // one word past it
		{dim, 1 << 32, false},             // an epoch past the bound
	} {
		c := cfg
		c.Dim, c.MaskEpoch = tc.dim, tc.epoch
		if err := c.Validate(); (err == nil) != tc.ok {
			t.Errorf("dim %d, epoch %d: Validate() = %v, want ok %v", tc.dim, tc.epoch, err, tc.ok)
		}
	}
}

// TestPerChunkMaskDeterminism: two session instances over the same key
// material (a fresh-cache clone, as a restarted participant would rebuild
// from its persisted keys) read identical per-chunk mask windows, the two
// ends of each pair agree on every chunk's window, and windows are
// pairwise distinct across chunks and ratchet steps.
func TestPerChunkMaskDeterminism(t *testing.T) {
	clone := func(s *Session) *Session {
		return &Session{
			cipherKey: s.cipherKey,
			maskKey:   s.maskKey,
		}
	}
	u1, err := NewSession(sessionRand("u"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := NewSession(sessionRand("v"))
	if err != nil {
		t.Fatal(err)
	}
	u2, v2 := clone(u1), clone(v1)

	seen := make(map[string]string)
	for _, step := range []uint64{0, 1, 2} {
		for _, epoch := range []uint64{0, 1, 2, 7} {
			sU1, err := u1.maskStream(v1.maskKey.PublicBytes(), step)
			if err != nil {
				t.Fatal(err)
			}
			sV1, err := v1.maskStream(u1.maskKey.PublicBytes(), step)
			if err != nil {
				t.Fatal(err)
			}
			sU2, err := u2.maskStream(v2.maskKey.PublicBytes(), step)
			if err != nil {
				t.Fatal(err)
			}
			w := Config{Bits: 16, Dim: 1001, MaskEpoch: epoch}
			a, b, c := windowWords(sU1, w, 4), windowWords(sV1, w, 4), windowWords(sU2, w, 4)
			if !slices.Equal(a, b) {
				t.Fatalf("step %d epoch %d: the two ends read different windows", step, epoch)
			}
			if !slices.Equal(a, c) {
				t.Fatalf("step %d epoch %d: re-run from the same round seed diverged", step, epoch)
			}
			key := fmt.Sprintf("step=%d epoch=%d", step, epoch)
			if prev, dup := seen[fmt.Sprint(a)]; dup {
				t.Fatalf("window collision between %s and %s", prev, key)
			}
			seen[fmt.Sprint(a)] = key
		}
	}
}

// sessionRoundConfig is a small session-test round: n clients, one of
// which drops before uploading (exercising the server's reconstructed-key
// and pair-secret caches).
func sessionRoundConfig(n, dim int) (Config, map[uint64]ring.Vector, DropSchedule) {
	ids := make([]uint64, n)
	inputs := make(map[uint64]ring.Vector, n)
	for i := range ids {
		id := uint64(i + 1)
		ids[i] = id
		v := ring.NewVector(16, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
	}
	cfg := Config{Round: 50, ClientIDs: ids, Threshold: n / 2, Bits: 16, Dim: dim}
	drops := DropSchedule{ids[n-1]: StageMaskedInput}
	return cfg, inputs, drops
}

// checkSessionSum verifies the aggregate equals the survivors' constant
// inputs exactly (no noise in these rounds, masks must cancel bit-for-bit).
func checkSessionSum(t *testing.T, res Result, n int) {
	t.Helper()
	want := uint64(0)
	for id := 1; id < n; id++ { // client n dropped
		want += uint64(id)
	}
	for i, got := range res.Sum {
		if got != want {
			t.Fatalf("sum[%d] = %d, want %d", i, got, want)
		}
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != uint64(n) {
		t.Fatalf("dropped = %v, want [%d]", res.Dropped, n)
	}
}

// TestRunWithSessionsAmortizesAgreements drives several sub-rounds over
// one session set — the chunks of a logical round (MaskEpoch 0..2) and the
// first chunk of a ratcheted next round (KeyRatchet 1) — and asserts that
// only the first sub-round performs X25519 agreements: every later
// sub-round, including the dropped client's unmasking, runs entirely from
// the caches while still producing the exact aggregate.
func TestRunWithSessionsAmortizesAgreements(t *testing.T) {
	const n, dim = 6, 64
	cfg, inputs, drops := sessionRoundConfig(n, dim)
	rand := sessionRand("round")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}

	subRounds := []struct {
		epoch, ratchet uint64
	}{
		{0, 0}, {1, 0}, {2, 0}, // three chunks of round r
		{0, 1}, {1, 1}, // two chunks of round r+1 (ratcheted)
	}
	var firstAgrees uint64
	for i, sr := range subRounds {
		c := cfg
		c.Round = cfg.Round + sr.ratchet
		c.MaskEpoch = sr.epoch
		c.KeyRatchet = sr.ratchet
		a0 := dh.AgreeCount()
		rr, err := RunWithSessions(c, inputs, nil, drops, rand, sess)
		if err != nil {
			t.Fatalf("sub-round %d: %v", i, err)
		}
		checkSessionSum(t, rr.Result, n)
		agrees := dh.AgreeCount() - a0
		if i == 0 {
			firstAgrees = agrees
			if agrees == 0 {
				t.Fatal("first sub-round performed no agreements")
			}
			continue
		}
		if agrees != 0 {
			t.Fatalf("sub-round %d (epoch %d, ratchet %d) performed %d agreements, want 0 (first did %d)",
				i, sr.epoch, sr.ratchet, agrees, firstAgrees)
		}
	}
}

// TestRunWithSessionsMatchesPlainRun: the amortized driver and the classic
// one produce the same exact aggregate on the same inputs (masks cancel
// bit-for-bit in both), and fresh sessions re-advertise rather than resume.
func TestRunWithSessionsMatchesPlainRun(t *testing.T) {
	const n, dim = 5, 48
	cfg, inputs, drops := sessionRoundConfig(n, dim)

	plain, err := RunWithSessions(cfg, inputs, nil, drops, sessionRand("plain"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rand := sessionRand("amortized")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	amortized, err := RunWithSessions(cfg, inputs, nil, drops, rand, sess)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Result.Sum {
		if plain.Result.Sum[i] != amortized.Result.Sum[i] {
			t.Fatalf("sum[%d]: plain %d != amortized %d", i, plain.Result.Sum[i], amortized.Result.Sum[i])
		}
	}
}

// TestSessionAdvertiseSkipRequiresMatchingRoster: sessions resume only for
// the exact client set the roster was sealed for; a different set falls
// back to a full advertise stage (and still completes correctly).
func TestSessionAdvertiseSkipRequiresMatchingRoster(t *testing.T) {
	const n, dim = 5, 32
	cfg, inputs, drops := sessionRoundConfig(n, dim)
	rand := sessionRand("mismatch")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	if sess.resumable(&cfg, drops) {
		t.Fatal("fresh sessions must not be resumable")
	}
	if _, err := RunWithSessions(cfg, inputs, nil, drops, rand, sess); err != nil {
		t.Fatal(err)
	}
	if !sess.resumable(&cfg, drops) {
		t.Fatal("sessions must be resumable after a sealed advertise stage")
	}
	smaller := cfg
	smaller.ClientIDs = cfg.ClientIDs[:n-1]
	smaller.MaskEpoch = 1 // a new derivation point; (0,0) already served
	if sess.resumable(&smaller, drops) {
		t.Fatal("a different client set must not resume on the cached roster")
	}
	smallInputs := make(map[uint64]ring.Vector, n-1)
	for _, id := range smaller.ClientIDs {
		smallInputs[id] = inputs[id]
	}
	if _, err := RunWithSessions(smaller, smallInputs, nil, nil, rand, sess); err != nil {
		t.Fatalf("fallback full advertise failed: %v", err)
	}
}

// TestSessionResumeReadmitsRecoveredClient: a roster sealed while a
// client was dead at the advertise stage must not serve a later round in
// which that client is alive — the sessions fall back to a full advertise
// stage and the recovered client's input re-enters the aggregate.
func TestSessionResumeReadmitsRecoveredClient(t *testing.T) {
	const n, dim = 5, 32
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("recovery")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: client 3 is dead before advertising; the sealed roster
	// excludes it.
	r1, err := RunWithSessions(cfg, inputs, nil,
		DropSchedule{3: StageAdvertiseKeys}, rand, sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Result.Dropped) != 1 || r1.Result.Dropped[0] != 3 {
		t.Fatalf("round 1 dropped = %v, want [3]", r1.Result.Dropped)
	}
	// Round 2: client 3 recovered. The partial roster must not resume.
	if sess.resumable(&cfg, nil) {
		t.Fatal("partial roster must not be resumable once the dropper recovers")
	}
	next := cfg
	next.MaskEpoch = 1
	r2, err := RunWithSessions(next, inputs, nil, nil, rand, sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Result.Dropped) != 0 {
		t.Fatalf("round 2 dropped = %v, want none", r2.Result.Dropped)
	}
	want := uint64(1 + 2 + 3 + 4 + 5)
	for i, got := range r2.Result.Sum {
		if got != want {
			t.Fatalf("round 2 sum[%d] = %d, want %d (recovered client included)", i, got, want)
		}
	}
	// Round 2's full roster re-arms the skip for later dropout-free rounds.
	again := cfg
	again.MaskEpoch = 2
	if !sess.resumable(&again, nil) {
		t.Fatal("full roster sealed in round 2 must be resumable")
	}
}

// steppedSubRound walks one sub-round of cfg over the sessions, stage by
// stage, through the masked upload: clients resume on the server's cached
// roster when it has one, and the clients in absent do not upload. It
// returns the server, the clients, and each client's ShareKeys output.
func steppedSubRound(t *testing.T, cfg Config, inputs map[uint64]ring.Vector, sess *RoundSessions,
	rand io.Reader, absent map[uint64]bool) (*Server, map[uint64]*Client, map[uint64][]EncryptedShareMsg) {

	t.Helper()
	server, err := NewSessionServer(cfg, sess.Server)
	if err != nil {
		t.Fatal(err)
	}
	roster := sess.Server.RosterFor(cfg.ClientIDs)
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	var adverts []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, inputs[id], nil, rand, sess.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
		if roster != nil {
			err = c.SkipAdvertise()
		} else {
			var adv AdvertiseMsg
			adv, err = c.AdvertiseKeys()
			adverts = append(adverts, adv)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if roster != nil {
		err = server.InstallRoster(roster)
	} else if roster, err = collectAdvertise(server, adverts); err == nil {
		sess.Server.StoreRoster(roster, cfg.ClientIDs)
	}
	if err != nil {
		t.Fatal(err)
	}
	shared := make(map[uint64][]EncryptedShareMsg, len(clients))
	for _, id := range cfg.ClientIDs {
		if shared[id], err = clients[id].ShareKeys(roster); err != nil {
			t.Fatal(err)
		}
	}
	deliveries, err := collectShares(server, shared)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cfg.ClientIDs {
		if absent[id] {
			continue
		}
		m, err := clients[id].MaskedInput(deliveries[id])
		if err != nil {
			t.Fatal(err)
		}
		if err := server.AddMasked(m); err != nil {
			t.Fatal(err)
		}
	}
	return server, clients, shared
}

// TestUnmaskRefusesConflictingRevealAcrossChunks: two sub-rounds at one
// ratchet step share every client's mask key, and — with the step's one
// deal — its self seed. A server that names v live at epoch 0 (collecting
// shares of v's self seed) and dropped at epoch 1 (asking for shares of v's
// mask key) would hold both and could unmask v's inputs, so the second
// Unmask is refused with the named error. Epoch 1 reuses epoch 0's deal:
// the same ciphertexts, and no entropy drawn.
func TestUnmaskRefusesConflictingRevealAcrossChunks(t *testing.T) {
	const n, dim, v = 5, 16, 5
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("reveal-ledger")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	unmaskAll := func(server *Server, clients map[uint64]*Client) map[uint64]error {
		t.Helper()
		u3, err := server.SealMasked()
		if err != nil {
			t.Fatal(err)
		}
		req := UnmaskRequest{U3: u3, U4: u3}
		errs := make(map[uint64]error, len(u3))
		for _, id := range u3 {
			if _, err := clients[id].ConsistencyCheck(u3); err != nil {
				t.Fatal(err)
			}
			_, errs[id] = clients[id].Unmask(req)
		}
		return errs
	}

	server, clients, dealt := steppedSubRound(t, cfg, inputs, sess, rand, nil)
	for id, err := range unmaskAll(server, clients) {
		if err != nil {
			t.Fatalf("epoch 0: client %d: %v", id, err)
		}
	}

	next := cfg
	next.MaskEpoch = 1
	counter := &countingReader{r: rand}
	server, clients, shared := steppedSubRound(t, next, inputs, sess, counter, map[uint64]bool{v: true})
	for id, err := range unmaskAll(server, clients) {
		if !errors.Is(err, ErrConflictingReveal) {
			t.Fatalf("client %d answered a request for %d's mask-key shares after revealing its self-seed shares: %v", id, v, err)
		}
	}
	if counter.n != 0 {
		t.Fatalf("epoch 1 drew %d entropy bytes; a reused deal draws none", counter.n)
	}
	for id, cts := range shared {
		if !slices.EqualFunc(cts, dealt[id], func(a, b EncryptedShareMsg) bool {
			return a.From == b.From && a.To == b.To && bytes.Equal(a.Ciphertext, b.Ciphertext)
		}) {
			t.Fatalf("client %d dealt afresh at epoch 1", id)
		}
	}
}

// TestReusedDealRefusesOtherDelivery: a sub-round reusing its step's deal
// must be delivered exactly the ciphertexts the deal first received — the
// bundles it opened are what it reveals from — whether the re-delivery
// drops one, alters one, or repeats one peer's in place of another's.
func TestReusedDealRefusesOtherDelivery(t *testing.T) {
	const n, dim = 5, 16
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("deal-delivery")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	steppedSubRound(t, cfg, inputs, sess, rand, nil)

	next := cfg
	next.MaskEpoch = 1
	server, clients, _ := steppedSubRound(t, next, inputs, sess, rand, map[uint64]bool{1: true})
	deliveries, err := server.SealShares()
	if err != nil {
		t.Fatal(err)
	}
	short := deliveries[1][1:]
	if _, err := clients[1].MaskedInput(short); !errors.Is(err, ErrDealMismatch) {
		t.Fatalf("a delivery missing one ciphertext: %v, want ErrDealMismatch", err)
	}
	tampered := slices.Clone(deliveries[1])
	tampered[0].Ciphertext = append([]byte(nil), tampered[0].Ciphertext...)
	tampered[0].Ciphertext[0] ^= 1
	if _, err := clients[1].MaskedInput(tampered); !errors.Is(err, ErrDealMismatch) {
		t.Fatalf("a delivery with another ciphertext: %v, want ErrDealMismatch", err)
	}
	repeated := slices.Clone(deliveries[1])
	repeated[1] = repeated[0]
	if _, err := clients[1].MaskedInput(repeated); !errors.Is(err, ErrDealMismatch) {
		t.Fatalf("a delivery repeating %d's ciphertext in place of %d's: %v, want ErrDealMismatch",
			repeated[0].From, deliveries[1][1].From, err)
	}
}

// TestReusedDealRepeatsReveal: a sub-round on the step's deal whose U3 is
// the first reveal's answers with exactly that reveal — both kinds of
// share, peer for peer — and the server unmasks the sum from it.
func TestReusedDealRepeatsReveal(t *testing.T) {
	const n, dim, v = 5, 16, 5
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("repeat-reveal")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	reveal := func(cfg Config) map[uint64]UnmaskMsg {
		t.Helper()
		server, clients, _ := steppedSubRound(t, cfg, inputs, sess, rand, map[uint64]bool{v: true})
		u3, err := server.SealMasked()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range u3 {
			m, err := clients[id].ConsistencyCheck(u3)
			if err == nil {
				err = server.AddConsistency(m)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		req, err := server.SealConsistency()
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64]UnmaskMsg, len(u3))
		for _, id := range req.U4 {
			m, err := clients[id].Unmask(req)
			if err == nil {
				err = server.AddUnmask(m)
			}
			if err != nil {
				t.Fatalf("epoch %d: client %d: %v", cfg.MaskEpoch, id, err)
			}
			out[id] = m
		}
		if _, err := server.SealUnmask(); err != nil {
			t.Fatal(err)
		}
		res, err := server.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkSessionSum(t, res, n)
		return out
	}
	first := reveal(cfg)
	next := cfg
	next.MaskEpoch = 1
	again := reveal(next)
	for id, m := range first {
		if len(m.MaskKeyShares) != 1 || len(m.SelfSeedShares) != n-1 {
			t.Fatalf("client %d revealed %d mask-key and %d self-seed shares, want 1 and %d",
				id, len(m.MaskKeyShares), len(m.SelfSeedShares), n-1)
		}
		if !reflect.DeepEqual(again[id], m) {
			t.Fatalf("client %d revealed at epoch 1 %+v, not epoch 0's %+v", id, again[id], m)
		}
	}
}

// TestReusedDealKeepsMaskList: the first delivery on a step's deal
// resolves the client's masks once and the deal keeps the list; a later
// sub-round on the deal re-aims that list at its window, so it resolves no
// stream and allocates no list, and its sum is still exact. A doctored
// delivery is refused before any mask is expanded: the upload buffer is
// as the previous sub-round left it.
func TestReusedDealKeepsMaskList(t *testing.T) {
	const n, dim = 5, 16
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("deal-masks")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	finish := func(server *Server, clients map[uint64]*Client) {
		t.Helper()
		u3, err := server.SealMasked()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range u3 {
			m, err := clients[id].ConsistencyCheck(u3)
			if err == nil {
				err = server.AddConsistency(m)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		req, err := server.SealConsistency()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range req.U4 {
			m, err := clients[id].Unmask(req)
			if err == nil {
				err = server.AddUnmask(m)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := server.SealUnmask(); err != nil {
			t.Fatal(err)
		}
		res, err := server.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkSessionSum(t, res, n)
	}

	server, clients, _ := steppedSubRound(t, cfg, inputs, sess, rand, map[uint64]bool{n: true})
	dealt := clients[1].deal.masks
	if len(dealt) != n { // the self mask and a pairwise mask per peer in U2
		t.Fatalf("the deal kept %d masks, want %d", len(dealt), n)
	}
	finish(server, clients)

	for epoch := uint64(1); epoch <= 2; epoch++ {
		next := cfg
		next.MaskEpoch = epoch
		server, clients, _ := steppedSubRound(t, next, inputs, sess, rand, map[uint64]bool{1: true, n: true})
		deliveries, err := server.SealShares()
		if err != nil {
			t.Fatal(err)
		}
		c := clients[1]
		upload := slices.Clone(c.buffer())
		tampered := slices.Clone(deliveries[1])
		tampered[0].Ciphertext = append([]byte(nil), tampered[0].Ciphertext...)
		tampered[0].Ciphertext[0] ^= 1
		if _, err := c.MaskedInput(tampered); !errors.Is(err, ErrDealMismatch) {
			t.Fatalf("epoch %d: a doctored delivery: %v, want ErrDealMismatch", epoch, err)
		}
		if !slices.Equal(c.buffer(), upload) {
			t.Fatalf("epoch %d: a refused delivery changed the upload", epoch)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.masks() }); allocs != 0 {
			t.Fatalf("epoch %d: masks on the deal allocate %v, want 0", epoch, allocs)
		}
		masks, err := c.masks()
		if err != nil {
			t.Fatal(err)
		}
		if &masks[0] != &dealt[0] || len(masks) != len(dealt) {
			t.Fatalf("epoch %d: masks on the deal are not the list the first delivery resolved", epoch)
		}
		for i, mk := range masks {
			if mk.Off != next.maskWindow() {
				t.Fatalf("epoch %d: mask %d aimed at byte %d, want the window at %d", epoch, i, mk.Off, next.maskWindow())
			}
		}
		m, err := c.MaskedInput(deliveries[1])
		if err == nil {
			err = server.AddMasked(m)
		}
		if err != nil {
			t.Fatal(err)
		}
		finish(server, clients)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// ringGraph links each id to the next and the previous one, cyclically.
type ringGraph []uint64

func (g ringGraph) Neighbors(id uint64) []uint64 {
	i := slices.Index(g, id)
	return []uint64{g[(i+len(g)-1)%len(g)], g[(i+1)%len(g)]}
}

// TestDealFitsAllocatesNothing: a sub-round that reuses its step's deal
// checks the deal without building a neighbourhood. Under the complete
// graph on both sides the recipients are the other ClientIDs, which fits
// compares already; a graph's neighbourhoods still decide, read from the
// validated memo.
func TestDealFitsAllocatesNothing(t *testing.T) {
	const n = 64
	ids := make([]uint64, n)
	roster := make([]AdvertiseMsg, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
		roster[i] = AdvertiseMsg{From: ids[i], CipherPub: []byte{byte(i), 1}, MaskPub: []byte{byte(i), 2}}
	}
	cfg := Config{ClientIDs: ids, Threshold: 3, Bits: 16, Dim: 8} // a ring neighbourhood holds 3
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := &deal{cfg: cfg, roster: roster}
	if allocs := testing.AllocsPerRun(100, func() {
		if !d.fits(cfg, 1, roster) {
			t.Fatal("the deal does not fit the sub-round that dealt it")
		}
	}); allocs != 0 {
		t.Fatalf("fits on a %d-client complete-graph deal allocates %v, want 0", n, allocs)
	}

	graphed := cfg
	graphed.Graph = ringGraph(ids)
	if err := graphed.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.fits(graphed, 1, roster) {
		t.Fatal("a complete-graph deal fits a ring-graph sub-round")
	}
	d.cfg = graphed
	if !d.fits(graphed, 1, roster) {
		t.Fatal("a ring-graph deal does not fit its own sub-round")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.fits(graphed, 1, roster) }); allocs != 0 {
		t.Fatalf("fits on a validated ring-graph deal allocates %v, want 0", allocs)
	}
}

// TestSessionsRejectDerivationPointReuse: running two aggregations over
// the same sessions at an identical (KeyRatchet, MaskEpoch) point must be
// refused — it would repeat every pairwise mask stream, letting the server
// difference the two uploads.
func TestSessionsRejectDerivationPointReuse(t *testing.T) {
	const n, dim = 5, 32
	cfg, inputs, drops := sessionRoundConfig(n, dim)
	rand := sessionRand("point-reuse")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithSessions(cfg, inputs, nil, drops, rand, sess); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithSessions(cfg, inputs, nil, drops, rand, sess); !errors.Is(err, ErrWindowServed) {
		t.Fatalf("identical (ratchet, epoch) on shared sessions: err %v, want ErrWindowServed", err)
	}
	next := cfg
	next.MaskEpoch = 1
	if _, err := RunWithSessions(next, inputs, nil, drops, rand, sess); err != nil {
		t.Fatalf("advanced epoch must be accepted: %v", err)
	}
}

// TestSessionsRejectOverlappingWindows: the mask windows served at one
// ratchet step must be disjoint, whatever their lengths. A repeated epoch
// is refused; so is a longer sub-round after a shorter one whose window
// reaches into the shorter one's (epoch 0 over twice the coordinates reads
// bytes [0, 2W), which hold epoch 1's [W, 2W)); windows that only touch
// end to end, and any window at another step, are served.
func TestSessionsRejectOverlappingWindows(t *testing.T) {
	const n, dim = 5, 32 // W = 64 bytes: 8 words of four 16-bit coordinates
	cfg, inputs, drops := sessionRoundConfig(n, dim)
	_, long, _ := sessionRoundConfig(n, 2*dim)
	rand := sessionRand("window-overlap")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	at := func(epoch uint64, inputs map[uint64]ring.Vector) error {
		c := cfg
		c.MaskEpoch, c.Dim = epoch, inputs[1].Len()
		_, err := RunWithSessions(c, inputs, nil, drops, rand, sess)
		return err
	}
	if err := at(1, inputs); err != nil {
		t.Fatal(err)
	}
	if err := at(1, inputs); !errors.Is(err, ErrWindowServed) {
		t.Fatalf("epoch 1 again: err %v, want ErrWindowServed", err)
	}
	if err := at(0, long); !errors.Is(err, ErrWindowServed) {
		t.Fatalf("epoch 0 at %d coordinates after epoch 1 at %d: err %v, want ErrWindowServed", 2*dim, dim, err)
	}
	if err := at(0, inputs); err != nil {
		t.Fatalf("epoch 0 ending where epoch 1 starts: %v", err)
	}
	if err := at(2, long); err != nil { // bytes [256, 384)
		t.Fatalf("epoch 2 at %d coordinates: %v", 2*dim, err)
	}
	next := cfg
	next.KeyRatchet, next.MaskEpoch = 1, 1
	if err := sess.markServed(&next); err != nil {
		t.Fatalf("epoch 1 at the next ratchet step: %v", err)
	}
}

// TestRoundSessionsReleaseScratch: Release hands every client session's
// buffer back to buffers (ARCHITECTURE.md, "Round scratch"). On a list of
// the test's own: after a round on one session set and its Release, no
// session holds a buffer, and a second set's round of the same shape runs
// in the first set's buffers (the list is last in, first out) though they
// were filled with garbage in between, with an exact sum; the first
// round's sum, read after the second ran, is unchanged (a -race build
// poisons what Release takes back); a round that fails after its clients
// masked (too few unmask responses) hands its buffers back too.
func TestRoundSessionsReleaseScratch(t *testing.T) {
	const n, dim = 6, 64
	// A list of its own: what earlier tests handed back could fill the
	// shared one, which then drops what this test's rounds release.
	defer func(b *transport.FreeList[uint64]) { buffers = b }(buffers)
	buffers = transport.NewFreeList[uint64](1<<16, 1<<16)

	cfg, inputs, drops := sessionRoundConfig(n, dim)
	// round runs round i on a fresh session set, releases it and returns
	// the buffers its clients held, by first word.
	round := func(i int, drops DropSchedule) (*RunResult, map[*uint64][]uint64, error) {
		t.Helper()
		rs, err := NewRoundSessions(cfg.ClientIDs, sessionRand(fmt.Sprintf("release-keys-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Round = uint64(50 + i)
		rr, err := RunWithSessions(cfg, inputs, nil, drops, sessionRand(fmt.Sprintf("release-%d", i)), rs)
		held := make(map[*uint64][]uint64)
		for _, s := range rs.Client {
			if s.buf != nil {
				held[&s.buf[0]] = s.buf
			}
		}
		rs.Release()
		for id, s := range rs.Client {
			if s.buf != nil {
				t.Fatalf("round %d: client %d's session kept its buffer after Release", i, id)
			}
		}
		return rr, held, err
	}
	within := func(a, b map[*uint64][]uint64) bool { // every buffer of a is one of b's
		for p := range a {
			if b[p] == nil {
				return false
			}
		}
		return true
	}

	first, held, err := round(1, drops)
	if err != nil {
		t.Fatal(err)
	}
	checkSessionSum(t, first.Result, n)
	if len(held) != n-1 {
		t.Fatalf("%d buffers for the %d masking clients", len(held), n-1)
	}
	for _, buf := range held {
		for i := range buf {
			buf[i] = 0x5A5A5A5A5A5A5A5A ^ uint64(i)
		}
	}
	second, again, err := round(2, drops)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(held) || !within(again, held) {
		t.Fatal("the second round did not run in the first round's buffers")
	}
	checkSessionSum(t, second.Result, n)
	checkSessionSum(t, first.Result, n)

	late := DropSchedule{3: StageUnmasking, 4: StageUnmasking, 5: StageUnmasking, 6: StageUnmasking}
	_, failed, err := round(3, late)
	if err == nil {
		t.Fatal("a round with 2 unmask responses at threshold 3 succeeded")
	}
	if len(failed) != n || !within(held, failed) {
		t.Fatalf("the failed round's %d masking clients did not run in the list's buffers", n)
	}
	if _, after, err := round(4, drops); err != nil {
		t.Fatal(err)
	} else if !within(after, failed) {
		t.Fatal("the failed round did not hand its buffers back")
	}
}
