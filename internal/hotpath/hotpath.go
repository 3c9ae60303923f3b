// Package hotpath bundles one-shot drivers for the protocol-level hot
// paths whose before/after numbers are recorded in
// BENCH_SECAGG_HOTPATH.json: Skellam noise sampling (per noise epoch),
// seekable-CTR mask expansion, and the whole aggregation round. The
// root multi-core bench matrix (bench_test.go BenchmarkMulticoreMatrix)
// and the dordis-bench -hotpath mode both call these, so the GOMAXPROCS
// sweep measured ad hoc from the CLI and the one asserted in CI run the
// exact same workloads.
package hotpath

import (
	"crypto/rand"
	"fmt"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/xnoise"
)

// Skellam draws len(out) Skellam(mu) samples from s with the sampler
// xnoise.SamplerForEpoch assigns to the given noise epoch. Unknown epochs
// are rejected, mirroring secagg.Config.
func Skellam(epoch uint64, s *prg.Stream, mu float64, out []int64) error {
	sampler := xnoise.SamplerForEpoch(epoch)
	if sampler == nil {
		return fmt.Errorf("hotpath: unknown noise epoch %d (max %d)", epoch, xnoise.MaxNoiseEpoch)
	}
	clear(out)
	sampler(s, mu, out)
	return nil
}

// MaskExpand applies one additive mask pass over v, expanding the
// stream across the given number of independently-seeked CTR segments
// (workers = 1 is the sequential floor).
func MaskExpand(v ring.Vector, s *prg.Stream, workers int) error {
	return v.MaskParallelInPlace(s, 1, workers)
}

// Round runs one full n-client aggregation round at the given dimension
// with XNoise enabled under the given noise epoch — the amortized
// whole-round workload: key agreement, share dealing, mask expansion,
// noise sampling, unmasking, and noise removal together.
func Round(n, dim int, epoch uint64) error {
	tol := n / 4
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := secagg.Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim,
		XNoise: &xnoise.Plan{
			NumClients: n, DropoutTolerance: tol,
			Threshold: n - tol, TargetVariance: 100,
		},
		NoiseEpoch: epoch,
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	_, err := secagg.Run(cfg, inputs, nil, secagg.DropSchedule{}, rand.Reader)
	return err
}
