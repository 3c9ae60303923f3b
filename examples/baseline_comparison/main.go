// Baseline comparison: the same aggregation round on three secure-
// aggregation substrates and two DP mechanisms.
//
// Part 1 runs one Dordis round twice through core.RunRound — once on
// SecAgg with DSkellam noise, once on SecAgg+ with DDGauss noise — and
// shows both land at the same survivors' sum with the target residual
// noise: protocols and mechanisms are swappable behind the same API.
//
// Part 2 runs the LightSecAgg baseline (So et al., MLSys 2022) on the
// same inputs: exact sum, one-shot mask recovery, but per-client share
// traffic that grows with the model — the §2.3.2 trade-off, printed as a
// cost table.
//
// Run with: go run ./examples/baseline_comparison
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"math"

	corepkg "repro/internal/core"
	"repro/internal/dgauss"
	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/prg"
	"repro/internal/skellam"
)

const (
	numClients = 6
	dim        = 1024
	clip       = 1.0
	targetMu   = 40.0
)

func main() {
	updates := make(map[uint64][]float64, numClients)
	for id := uint64(1); id <= numClients; id++ {
		u := make([]float64, dim)
		for i := range u {
			u[i] = 0.004 * float64(id)
		}
		updates[id] = u
	}
	drops := []uint64{2} // one client vanishes before upload
	survivorsSum := 0.004 * (1 + 3 + 4 + 5 + 6)

	// --- Part 1: SecAgg+DSkellam vs SecAgg+ +DDGauss through one API ---
	scale, err := skellam.ChooseScale(dim, clip, 20, numClients, 0.1*clip, 3)
	if err != nil {
		log.Fatal(err)
	}
	codec := skellam.Params{
		Dim: dim, Bits: 20, Clip: clip, Scale: scale,
		Beta: math.Exp(-0.5), K: 3, NumClients: numClients,
		RotationSeed: prg.NewSeed([]byte("baseline-rotation")),
	}
	variants := []struct {
		name string
		cfg  corepkg.RoundConfig
	}{
		{"SecAgg + DSkellam", corepkg.RoundConfig{
			Round: 1, Protocol: corepkg.ProtocolSecAgg, Codec: codec,
			Threshold: 4, Chunks: 2, Tolerance: 2, TargetMu: targetMu,
			Seed: prg.NewSeed([]byte("skellam-run")),
		}},
		{"SecAgg+ + DDGauss", corepkg.RoundConfig{
			Round: 1, Protocol: corepkg.ProtocolSecAggPlus, Codec: codec,
			Threshold: 4, Chunks: 2, Tolerance: 2, TargetMu: targetMu,
			Sampler: dgauss.Sampler,
			Seed:    prg.NewSeed([]byte("dgauss-run")),
		}},
	}
	fmt.Println("== one round, two substrates, two mechanisms ==")
	for _, v := range variants {
		res, err := corepkg.RunRound(v.cfg, updates, drops, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		var mean, noiseVar float64
		for i := range res.Sum {
			mean += res.Sum[i]
			g := (res.Sum[i] - survivorsSum) * codec.Scale
			noiseVar += g * g
		}
		mean /= float64(dim)
		noiseVar /= float64(dim)
		fmt.Printf("%-20s survivors=%d mean=%.4f (want %.4f) residual var=%.1f (target %.1f)\n",
			v.name, len(res.Survivors), mean, survivorsSum, noiseVar, targetMu)
	}

	// --- Part 2: LightSecAgg on the same round (integer inputs) ---
	ids := make([]uint64, numClients)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	lcfg := lightsecagg.Config{ClientIDs: ids, PrivacyT: 1, Dropout: 1, Dim: dim}
	inputs := make(map[uint64][]field.Element, numClients)
	for id, u := range updates {
		v := make([]field.Element, dim)
		for i := range v {
			v[i] = lightsecagg.Lift(int64(math.Round(u[i] * 1000))) // fixed-point grid
		}
		inputs[id] = v
	}
	sum, err := lightsecagg.RunWithSessions(lcfg, inputs,
		lightsecagg.DropSchedule{2: lightsecagg.StageMaskedInput}, rand.Reader, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== LightSecAgg: exact one-shot recovery ==")
	fmt.Printf("coordinate 0 sum: %d (want %d, exact — masks cancel bit-for-bit)\n",
		lightsecagg.Center(sum[0]), int64(4+12+16+20+24))

	fmt.Println("\n== per-client upload at FL model sizes (MiB) ==")
	fmt.Printf("%-12s %12s %12s\n", "model", "LightSecAgg", "masked input")
	for _, params := range []int{5_000_000, 50_000_000} {
		big := lcfg
		big.ClientIDs = make([]uint64, 100)
		for i := range big.ClientIDs {
			big.ClientIDs[i] = uint64(i + 1)
		}
		big.PrivacyT, big.Dropout, big.Dim = 10, 10, params
		cost, err := lightsecagg.ClientCost(big, 2.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %12.1f %12.1f\n",
			fmt.Sprintf("%dM", params/1_000_000),
			cost.Total()/(1<<20), cost.MaskedUploadBytes/(1<<20))
	}
	fmt.Println("\nLightSecAgg's coded-share traffic scales with the model (§2.3.2);")
	fmt.Println("XNoise's dropout machinery ships constant-size seeds instead (Table 3).")
}
