//go:build gap

package secagg

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/xnoise"
)

// TestGapDealtSecretEntropy: every secret a client Shamir-shares or
// expands into a PRG must carry at least 128 bits, the security level of
// the X25519 keys beside it. The mask key s^SK is a key pair's scalar, all
// of whose bytes the key draw fills. The self-mask seed b_u and the noise
// seeds g_{u,k} are drawn from the client's entropy source inside the
// protocol, so each is measured there: one bit at a time of what the
// source yields is flipped, and a secret carries as many bits as there are
// flips that change it — b_u read through the stream it keys.
func TestGapDealtSecretEntropy(t *testing.T) {
	cfg := mkConfig(5, 3, &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 10})
	rs, roster := sessionRoster(t, cfg)
	const id, flipped = 2, 256 // every bit of the first 256 bytes the client draws
	src := make([]byte, 4096)
	prg.NewStream(prg.NewSeed([]byte("dealt-secret-entropy"))).Fill(src)

	// deal runs client id's ShareKeys on src and returns what it dealt or
	// keyed a PRG from: b_u's stream output, then g_{u,0..T}.
	deal := func(src []byte) (*Client, []any) {
		c, err := NewSessionClient(cfg, id, ring.NewVector(cfg.Bits, cfg.Dim), nil, bytes.NewReader(src), rs.Client[id])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.AdvertiseKeys(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ShareKeys(roster); err != nil {
			t.Fatal(err)
		}
		var selfMask [32]byte
		c.selfStream.Fill(selfMask[:])
		secrets := []any{selfMask}
		for _, g := range c.noise.Seeds {
			secrets = append(secrets, g)
		}
		return c, secrets
	}
	c, base := deal(src)
	bits := make([]int, len(base))
	for bit := range 8 * flipped {
		flip := bytes.Clone(src)
		flip[bit/8] ^= 1 << (bit % 8)
		_, got := deal(flip)
		for i := range base {
			if got[i] != base[i] {
				bits[i]++
			}
		}
	}

	names := []string{"self-mask seed b_u"}
	for k := range c.noise.Seeds {
		names = append(names, fmt.Sprintf("noise seed g_{u,%d}", k))
	}
	if n := 8 * len(c.maskKey.PrivateBytes()); n < 128 {
		t.Errorf("GAP: mask key s^SK carries %d bits, below the keys' 128", n)
	}
	for i, name := range names {
		if bits[i] < 128 {
			t.Errorf("GAP: %s carries %d bits, below the keys' 128", name, bits[i])
		}
	}
}
