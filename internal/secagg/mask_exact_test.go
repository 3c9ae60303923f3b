package secagg_test

import (
	"fmt"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
)

// TestMaskExpansionExactSum: the client's expansion, the server's
// self-mask removal and the server's reconstruction of a dropped client's
// pairwise masks all go through the one mask kernel, and must meet: over
// the classic and the SecAgg+ graph, with a client lost before its masked
// upload (pairwise masks reconstructed) and one lost before unmasking
// (self mask reconstructed from shares), the sum equals the plaintext
// ring sum of the clients whose upload arrived — at dimensions on either
// side of a keystream word and of a kernel block, and at widths that pack
// three, two and one coordinate per word.
func TestMaskExpansionExactSum(t *testing.T) {
	const n, degree = 10, 6
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	schedules := map[string]secagg.DropSchedule{
		"before-masked": {2: secagg.StageMaskedInput},
		"before-unmask": {7: secagg.StageUnmasking},
		"both":          {2: secagg.StageMaskedInput, 5: secagg.StageMaskedInput, 7: secagg.StageUnmasking},
	}
	rand := prg.NewStream(prg.NewSeed([]byte("mask-exact")))
	for _, bits := range []uint{20, 32, 40} {
		per, block := int(64/bits), ring.MaskBlockLen(bits)
		for _, dim := range []int{1, per + 1, block + 1, 3*block - 1} {
			inputs := make(map[uint64]ring.Vector, n)
			for _, id := range ids {
				v := ring.NewVector(bits, dim)
				rand.FillUint64Masked(v.Data, v.Mask())
				inputs[id] = v
			}
			base := secagg.Config{Round: 20, ClientIDs: ids, Threshold: 3, Bits: bits, Dim: dim}
			plus, err := secaggplus.NewConfig(base, degree)
			if err != nil {
				t.Fatal(err)
			}
			for graph, cfg := range map[string]secagg.Config{"classic": base, "secagg+": plus} {
				for name, drops := range schedules {
					t.Run(fmt.Sprintf("b%d/dim%d/%s/%s", bits, dim, graph, name), func(t *testing.T) {
						rr, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand, nil)
						if err != nil {
							t.Fatal(err)
						}
						want := ring.NewVector(bits, dim)
						for _, id := range ids {
							if stage, dropped := drops[id]; dropped && stage <= secagg.StageMaskedInput {
								continue
							}
							if err := want.AddInPlace(inputs[id]); err != nil {
								t.Fatal(err)
							}
						}
						if got := (ring.Vector{Bits: bits, Data: rr.Result.Sum}); !ring.Equal(got, want) {
							t.Fatalf("sum differs from the plaintext ring sum (dropped %v)", rr.Result.Dropped)
						}
					})
				}
			}
		}
	}
}
