package repro

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (DESIGN.md §4 maps ids to experiments). Each benchmark runs
// the experiment at QuickScale and prints the regenerated rows once, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Full-fidelity runs:
//
//	go run ./cmd/dordis-bench -exp all -scale paper
//
// Component micro-benchmarks live next to their packages.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string, sc experiments.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := experiments.Run(id, &buf, sc); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Fprintf(os.Stdout, "\n===== %s =====\n%s", id, buf.String())
		}
	}
}

// BenchmarkFig1bPrivacyUtilityCIFAR10 regenerates Figure 1b: privacy cost
// and accuracy of Orig/Early/Con8/Con5/Con2 under volatile dropout.
func BenchmarkFig1bPrivacyUtilityCIFAR10(b *testing.B) {
	benchExperiment(b, "fig1b", experiments.QuickScale())
}

// BenchmarkFig1cPrivacyUtilityCIFAR100 regenerates Figure 1c (the
// CIFAR-100-like task).
func BenchmarkFig1cPrivacyUtilityCIFAR100(b *testing.B) {
	benchExperiment(b, "fig1c", experiments.QuickScale())
}

// BenchmarkFig1dPrivacyVsDropout regenerates Figure 1d: Orig's final ε vs
// dropout rate for budgets 3/6/9 (exact accounting).
func BenchmarkFig1dPrivacyVsDropout(b *testing.B) {
	benchExperiment(b, "fig1d", experiments.QuickScale())
}

// BenchmarkFig2SecAggCostShare regenerates Figure 2: the round-time share
// of SecAgg/SecAgg+ at 32/48/64 clients.
func BenchmarkFig2SecAggCostShare(b *testing.B) {
	benchExperiment(b, "fig2", experiments.QuickScale())
}

// BenchmarkFig8PrivacyConsumption regenerates Figure 8: budget consumption
// of Orig vs XNoise across dropout rates on the three tasks.
func BenchmarkFig8PrivacyConsumption(b *testing.B) {
	benchExperiment(b, "fig8", experiments.QuickScale())
}

// BenchmarkFig9RoundToAccuracy regenerates Figure 9: learning curves at
// 20% dropout.
func BenchmarkFig9RoundToAccuracy(b *testing.B) {
	benchExperiment(b, "fig9", experiments.QuickScale())
}

// BenchmarkFig10PipelineSpeedup regenerates Figure 10: plain vs pipelined
// round times across workloads × protocols × schemes × dropout.
func BenchmarkFig10PipelineSpeedup(b *testing.B) {
	benchExperiment(b, "fig10", experiments.QuickScale())
}

// BenchmarkTable1StageGraph regenerates Table 1: the stage decomposition.
func BenchmarkTable1StageGraph(b *testing.B) {
	benchExperiment(b, "table1", experiments.QuickScale())
}

// BenchmarkTable2FinalUtility regenerates Table 2: final accuracy (or
// perplexity) of Orig vs XNoise across dropout rates.
func BenchmarkTable2FinalUtility(b *testing.B) {
	benchExperiment(b, "table2", experiments.Scale{Rounds: 12, PerClient: 20})
}

// BenchmarkTable3NetworkFootprint regenerates Table 3: rebasing vs XNoise
// per-client network footprint.
func BenchmarkTable3NetworkFootprint(b *testing.B) {
	benchExperiment(b, "table3", experiments.QuickScale())
}

// BenchmarkAppendixCOptimalChunks regenerates the Appendix C ablation: the
// makespan sweep over m and the solver's pick.
func BenchmarkAppendixCOptimalChunks(b *testing.B) {
	benchExperiment(b, "appendixc", experiments.QuickScale())
}

// BenchmarkAblationDPModels regenerates ablD: the §2.2 trichotomy —
// central vs local vs distributed DP on one training task.
func BenchmarkAblationDPModels(b *testing.B) {
	benchExperiment(b, "ablD", experiments.Scale{Rounds: 12, PerClient: 20})
}

// BenchmarkAblationTolerance regenerates ablT: what the dropout-tolerance
// knob T costs in per-client noise and share traffic (§3.2 design choice).
func BenchmarkAblationTolerance(b *testing.B) {
	benchExperiment(b, "ablT", experiments.QuickScale())
}

// BenchmarkAblationIntervention regenerates ablI: chunk planning with and
// without the Eq.-3 intervention term β₂ (§4.2 design choice).
func BenchmarkAblationIntervention(b *testing.B) {
	benchExperiment(b, "ablI", experiments.QuickScale())
}

// BenchmarkAblationProtocols regenerates ablP: per-client upload of
// SecAgg / SecAgg+ / SecAgg+XNoise / LightSecAgg (§2.3.2 baselines).
func BenchmarkAblationProtocols(b *testing.B) {
	benchExperiment(b, "ablP", experiments.QuickScale())
}

// BenchmarkAblationMechanisms regenerates ablS: DSkellam vs DDGauss
// central noise at the same privacy budget (§5 mechanism choice).
func BenchmarkAblationMechanisms(b *testing.B) {
	benchExperiment(b, "ablS", experiments.QuickScale())
}

// BenchmarkAblationShuffle regenerates ablU: the shuffle-model alternative
// vs SecAgg-based distributed DP (§2.2 aside).
func BenchmarkAblationShuffle(b *testing.B) {
	benchExperiment(b, "ablU", experiments.QuickScale())
}
