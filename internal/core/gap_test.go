//go:build gap

package core

import (
	"crypto/rand"
	"fmt"
	"strings"
	"testing"

	"repro/internal/prg"
)

// TestGapSecAggPlusAdjacentDrops: a round whose config declares Tolerance
// 16 must survive any 16 drops before the masked upload, or Validate must
// refuse the config and name the tolerance it cannot hold. flat_cold's
// shape (n = 64, Threshold 48, Tolerance 16, dim 1024, one chunk) resolves
// to SecAgg+ on a sorted-id ring, whose neighbourhood survives at most
// k+1−t = 6 dropouts among its members, so 7 adjacent drops abort the
// round wherever they fall.
func TestGapSecAggPlusAdjacentDrops(t *testing.T) {
	const n, dim = 64, 1024
	cfg := RoundConfig{
		Round: 1, Protocol: ProtocolAuto, Codec: testCodec(dim, n),
		Threshold: 48, Chunks: 1, Tolerance: 16, TargetMu: 100,
		Seed: prg.NewSeed([]byte("gap-adjacent-drops")),
	}
	if err := cfg.Validate(); err != nil {
		if !strings.Contains(strings.ToLower(err.Error()), "tolerance") {
			t.Fatalf("Validate refuses the config without naming its tolerance: %v", err)
		}
		return
	}
	updates := randomUpdates(n, dim, 0.5)
	for _, first := range []uint64{1, 29, 61} { // the ring's start, its middle, and across its wrap
		var drops []uint64
		for i := range uint64(7) {
			drops = append(drops, (first-1+i)%n+1)
		}
		t.Run(fmt.Sprint(drops), func(t *testing.T) {
			if _, err := RunRound(cfg, updates, drops, rand.Reader); err != nil {
				t.Errorf("GAP: %d adjacent drops abort a round that declares Tolerance %d: %v",
					len(drops), cfg.Tolerance, err)
			}
		})
	}
}
