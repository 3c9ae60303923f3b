package shamir

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/field"
)

// BenchmarkThresholdSweep: how share and reconstruction cost scale with
// the threshold t at fixed n = 100 — the knob trading SecAgg robustness
// (small t) against collusion resistance (large t, §3.4 requires
// 2t > |U|).
func BenchmarkThresholdSweep(b *testing.B) {
	const n = 100
	secret := field.New(123456789)
	for _, t := range []int{34, 51, 67, 90} {
		b.Run(fmt.Sprintf("share/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := splitIndexed(secret, t, n, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
		shares, err := splitIndexed(secret, t, n, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("reconstruct/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Reconstruct(shares[:t], t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructMany measures recovering K secrets shared over the
// same abscissa set — the exact shape of XNoise seed recovery (§3.2), where
// the survivor set is identical across all K noise seeds — one Reconstruct
// at a time: the unbatched reference for the batched pass production runs,
// which the round benchmark times (bench/, shamir.reconstruct_batch_us).
func BenchmarkReconstructMany(b *testing.B) {
	const n, t, k = 64, 48, 16
	sets := make([][]Share, k)
	for i := range sets {
		shares, err := splitIndexed(field.New(uint64(1000+i)), t, n, rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = shares[:t]
	}
	b.Run("loop-of-Reconstruct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, shares := range sets {
				if _, err := Reconstruct(shares, t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
