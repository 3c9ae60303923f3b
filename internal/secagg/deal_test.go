package secagg

import (
	"bytes"
	"crypto/rand"
	"errors"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/shamir"
	"repro/internal/xnoise"
)

// dealShape is sharded_mem's shard: 16 clients, threshold 12, XNoise
// tolerance 4, on the complete graph.
func dealShape() Config {
	return mkConfig(16, 12, &xnoise.Plan{NumClients: 16, DropoutTolerance: 4, Threshold: 12, TargetVariance: 100})
}

// sessionRoster gives every client of cfg a session and returns the
// sessions with the roster of their advertisements, ascending by id.
func sessionRoster(t testing.TB, cfg Config) (*RoundSessions, []AdvertiseMsg) {
	t.Helper()
	rs, err := NewRoundSessions(cfg.ClientIDs, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var roster []AdvertiseMsg
	for _, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, ring.NewVector(cfg.Bits, cfg.Dim), nil, rand.Reader, rs.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.AdvertiseKeys()
		if err != nil {
			t.Fatal(err)
		}
		roster = append(roster, m)
	}
	return rs, roster
}

// TestShareKeysMatchesSplitReference: under a seeded reader one client's
// ShareKeys seals exactly the ciphertexts of the dealer it replaced — one
// Split per secret (the mask key's chunks, b_u, g_{u,1..T}), each peer's
// shares encoded into its bundle and sealed under the route AD — so no
// share-bundle, nonce or ciphertext byte moves.
func TestShareKeysMatchesSplitReference(t *testing.T) {
	cfg := dealShape()
	rs, roster := sessionRoster(t, cfg)
	const id = 5
	seed := prg.NewSeed([]byte("sharekeys-reference"))
	c, err := NewSessionClient(cfg, id, ring.NewVector(cfg.Bits, cfg.Dim), nil, prg.NewStream(seed), rs.Client[id])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvertiseKeys(); err != nil {
		t.Fatal(err)
	}
	cts, err := c.ShareKeys(roster)
	if err != nil {
		t.Fatal(err)
	}

	ref := prg.NewStream(seed)
	noise, err := xnoise.NewClientNoise(*cfg.XNoise, ref) // the client's first draw
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	if _, err := ref.Read(buf[:]); err != nil {
		t.Fatal(err)
	}
	selfSeed := field.RandomElement(buf)
	xs := make([]field.Element, len(cfg.ClientIDs))
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	split := func(secret field.Element) []shamir.Share {
		shares, err := shamir.Split(secret, cfg.Threshold, xs, ref)
		if err != nil {
			t.Fatal(err)
		}
		return shares
	}
	var keyShares [numKeyChunks][]shamir.Share
	for i, chunk := range bytesToChunks(c.maskKey.PrivateBytes()) {
		keyShares[i] = split(chunk)
	}
	selfShares := split(selfSeed)
	noiseShares := make([][]shamir.Share, cfg.XNoise.DropoutTolerance)
	for k := range noiseShares {
		noiseShares[k] = split(noise.Seeds[k+1])
	}

	if len(cts) != len(cfg.ClientIDs)-1 {
		t.Fatalf("%d ciphertexts, want %d", len(cts), len(cfg.ClientIDs)-1)
	}
	next := 0
	for i, peer := range cfg.ClientIDs {
		if peer == id {
			continue
		}
		b := ShareBundle{From: id, To: peer, SelfSeed: selfShares[i]}
		for j := range b.MaskKey {
			b.MaskKey[j] = keyShares[j][i]
		}
		for k := range noiseShares {
			b.NoiseSeeds = append(b.NoiseSeeds, noiseShares[k][i])
		}
		pt, err := encodeBundle(b)
		if err != nil {
			t.Fatal(err)
		}
		key, err := rs.Client[peer].channelKey(c.cipherKey.PublicBytes(), cfg.KeyRatchet)
		if err != nil {
			t.Fatal(err)
		}
		want, err := key.AppendSeal(nil, ref, pt, session.AppendRouteAD(nil, cfg.Round, id, peer))
		if err != nil {
			t.Fatal(err)
		}
		if m := cts[next]; m.From != id || m.To != peer || !bytes.Equal(m.Ciphertext, want) {
			t.Fatalf("ciphertext %d (%d→%d) differs from the reference's for %d→%d", next, m.From, m.To, id, peer)
		}
		next++
	}
}

// TestDealtTableRecoversSecrets: any t of the bundles a client deals
// reconstruct every secret of its table — the mask key, b_u and each
// removable noise seed g_{u,k}, k ≥ 1 — and fewer than t reconstruct none;
// g_{u,0}, never removed, is never dealt.
func TestDealtTableRecoversSecrets(t *testing.T) {
	cfg := dealShape()
	rs, roster := sessionRoster(t, cfg)
	const id = 3
	c, err := NewSessionClient(cfg, id, ring.NewVector(cfg.Bits, cfg.Dim), nil, rand.Reader, rs.Client[id])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvertiseKeys(); err != nil {
		t.Fatal(err)
	}
	cts, err := c.ShareKeys(roster)
	if err != nil {
		t.Fatal(err)
	}
	bundles := []ShareBundle{*c.received[id]}
	for _, m := range cts {
		pt, err := c.channelKey[m.To].Open(m.Ciphertext, session.AppendRouteAD(nil, cfg.Round, id, m.To))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := decodeBundle(pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, b)
	}
	th := cfg.Threshold
	keys := make([][numKeyChunks]shamir.Share, len(bundles))
	for i, b := range bundles {
		keys[i] = b.MaskKey
	}
	if got, err := reconstructKey(keys[len(keys)-th:], th); err != nil || got != c.maskKey.PrivateBytes() {
		t.Fatalf("mask key: reconstructed %x (%v)", got, err)
	}
	if _, err := reconstructKey(keys[:th-1], th); !errors.Is(err, shamir.ErrTooFewShares) {
		t.Fatalf("mask key from t−1 bundles: %v, want ErrTooFewShares", err)
	}
	reconstruct := func(share func(ShareBundle) shamir.Share) field.Element {
		shares := make([]shamir.Share, th)
		for i, b := range bundles[1 : th+1] {
			shares[i] = share(b)
		}
		v, err := shamir.Reconstruct(shares, th)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := shamir.Reconstruct(shares[:th-1], th); !errors.Is(err, shamir.ErrTooFewShares) {
			t.Fatalf("t−1 shares: %v, want ErrTooFewShares", err)
		}
		return v
	}
	selfSeed := reconstruct(func(b ShareBundle) shamir.Share { return b.SelfSeed })
	if got, want := prg.NewStreamFromElement(selfSeed).Uint64(), c.selfStream.Uint64(); got != want {
		t.Fatalf("b_u reconstructs to a stream starting %#x, the client's starts %#x", got, want)
	}
	for _, b := range bundles {
		if len(b.NoiseSeeds) != cfg.XNoise.DropoutTolerance {
			t.Fatalf("bundle %d→%d carries %d noise-seed shares, want T = %d (g_{u,0} is never dealt)",
				b.From, b.To, len(b.NoiseSeeds), cfg.XNoise.DropoutTolerance)
		}
	}
	for k := 1; k <= cfg.XNoise.DropoutTolerance; k++ {
		if got := reconstruct(func(b ShareBundle) shamir.Share { return b.NoiseSeeds[k-1] }); got != c.noise.Seeds[k] {
			t.Fatalf("g_{u,%d}: reconstructed %v, want %v", k, got, c.noise.Seeds[k])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestShareKeysAllocBound: at sharded_mem's shape a client deals its
// secrets through one table and writes each peer's shares straight into
// that peer's bundle, so a ShareKeys on a warm session allocates the
// table, the route bookkeeping and the sealed ciphertexts, not a share
// list per secret and a transposed copy per peer.
func TestShareKeysAllocBound(t *testing.T) {
	if raceBuild {
		t.Skip("a -race build allocates on its own schedule")
	}
	cfg := dealShape()
	rs, roster := sessionRoster(t, cfg)
	c, err := NewSessionClient(cfg, 1, ring.NewVector(cfg.Bits, cfg.Dim), nil, rand.Reader, rs.Client[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvertiseKeys(); err != nil {
		t.Fatal(err)
	}
	shareKeys := func() {
		if _, err := c.ShareKeys(roster); err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := testing.AllocsPerRun(50, shareKeys), bytesPerRun(50, shareKeys)
	if allocs > 40 || bytes > 16<<10 {
		t.Fatalf("ShareKeys at 16 clients, t = 12, T = 4 allocates %v times, %d B; want ≤ 40 and ≤ 16 KiB", allocs, bytes)
	}
}

// TestOpenBundleAllocBound: opening a peer's share bundle decrypts into
// the client's plaintext scratch under a route AD in the client, decodes
// the noise-seed shares into the one array ShareKeys sized for every peer,
// and keeps the bundle in the slab and map sized there, so what is left
// per bundle is the codec's one transport.Reader.
func TestOpenBundleAllocBound(t *testing.T) {
	if raceBuild {
		t.Skip("a -race build allocates on its own schedule")
	}
	cfg := dealShape()
	rs, roster := sessionRoster(t, cfg)
	clients := make([]*Client, len(cfg.ClientIDs))
	relay := make(map[uint64][]EncryptedShareMsg)
	for i, id := range cfg.ClientIDs {
		c, err := NewSessionClient(cfg, id, ring.NewVector(cfg.Bits, cfg.Dim), nil, rand.Reader, rs.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvertiseKeys(); err != nil {
			t.Fatal(err)
		}
		cts, err := c.ShareKeys(roster)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cts {
			relay[m.To] = append(relay[m.To], m)
		}
		clients[i] = c
	}
	c := clients[0]
	if _, err := c.MaskedInput(relay[c.id]); err != nil {
		t.Fatal(err)
	}
	peers := cfg.ClientIDs[1:]
	open := func() {
		for _, v := range peers {
			delete(c.received, v)
		}
		c.bundles, c.noiseShares = c.bundles[:1], c.noiseShares[:0] // the client's own bundle stays
		for _, v := range peers {
			if _, err := c.bundleFrom(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, open); allocs > float64(len(peers)) {
		t.Fatalf("opening %d bundles at 16 clients, t = 12, T = 4 allocates %v times, want ≤ one per bundle", len(peers), allocs)
	}
}
