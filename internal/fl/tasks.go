package fl

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/prg"
)

// Task presets mirroring the paper's three workloads (§6.1) at laptop
// scale. The class counts, client counts, sampling sizes, round counts,
// privacy deltas, clip bounds, and optimizer settings follow the paper;
// the datasets and models are the synthetic substitutes ARCHITECTURE.md
// ("Datasets and models") describes. Callers may override Rounds (etc.)
// before running — dordis-bench's quick scale shrinks them to keep
// regeneration fast.

// TaskScale shrinks a preset uniformly: data volume and rounds scale down,
// keeping the privacy/utility comparisons intact.
type TaskScale struct {
	Rounds    int // override round count (0 = preset default)
	PerClient int // override examples per client (0 = preset default)
}

func synth(name string, classes, dim, clients, perClient, test int, seed prg.Seed) *data.Federated {
	fed, err := data.Generate(data.SynthConfig{
		NumClasses:   classes,
		Dim:          dim,
		NumClients:   clients,
		PerClient:    perClient,
		TestExamples: test,
		Alpha:        1.0, // paper: LDA concentration 1.0
		ClusterStd:   1.0,
		Seed:         prg.NewSeed(seed[:], []byte("task/"+name)),
	})
	if err != nil {
		panic(fmt.Sprintf("fl: generating %s: %v", name, err))
	}
	return fed
}

// CIFAR10Like is the CIFAR-10 stand-in: 10 classes, 100 clients, 16
// sampled per round, 150 rounds, clip 3, δ = 1e-2, batch 16 (scaled from
// the paper's 128 with the smaller shards), LR 0.05.
func CIFAR10Like(seed prg.Seed, sc TaskScale) Task {
	rounds := sc.Rounds
	if rounds == 0 {
		rounds = 150
	}
	perClient := sc.PerClient
	if perClient == 0 {
		perClient = 60
	}
	const dim, hidden, classes = 24, 12, 10
	fed := synth("cifar10", classes, dim, 100, perClient, 600, seed)
	return Task{
		Name:            "cifar10-like",
		Fed:             fed,
		NewModel:        func() ml.Model { return ml.NewMLP(dim, hidden, classes, prg.NewSeed(seed[:], []byte("m/c10"))) },
		Rounds:          rounds,
		SGD:             ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, Epochs: 1, BatchSize: 16},
		Clip:            3,
		SampledPerRound: 16,
		Delta:           1e-2,
		EvalEvery:       5,
	}
}

// CIFAR100Like is the CIFAR-100 stand-in: 100 classes (a much harder
// task, as in Fig. 1c), 16 sampled per round, 300 rounds. The population
// is 400 clients (δ = 1/400): the small compact model needs the stronger
// subsampling amplification to keep the DP noise in the learnable regime,
// mirroring the paper's much larger over-parameterized models.
func CIFAR100Like(seed prg.Seed, sc TaskScale) Task {
	rounds := sc.Rounds
	if rounds == 0 {
		rounds = 300
	}
	perClient := sc.PerClient
	if perClient == 0 {
		perClient = 80
	}
	const dim, classes = 64, 100
	fed := synth("cifar100", classes, dim, 400, perClient, 1000, seed)
	return Task{
		Name:            "cifar100-like",
		Fed:             fed,
		NewModel:        func() ml.Model { return ml.NewLinear(dim, classes) },
		Rounds:          rounds,
		SGD:             ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, Epochs: 1, BatchSize: 16},
		Clip:            3,
		SampledPerRound: 16,
		Delta:           2.5e-3,
		EvalEvery:       10,
	}
}

// FEMNISTLike is the FEMNIST stand-in: 62 classes, many small clients,
// 100 sampled per round, 50 rounds, clip 1, δ = 1e-3, 2 local epochs.
func FEMNISTLike(seed prg.Seed, sc TaskScale) Task {
	rounds := sc.Rounds
	if rounds == 0 {
		rounds = 50
	}
	perClient := sc.PerClient
	if perClient == 0 {
		perClient = 30
	}
	const dim, classes = 24, 62
	fed := synth("femnist", classes, dim, 1000, perClient, 1000, seed)
	return Task{
		Name:            "femnist-like",
		Fed:             fed,
		NewModel:        func() ml.Model { return ml.NewLinear(dim, classes) },
		Rounds:          rounds,
		SGD:             ml.SGDConfig{LearningRate: 0.05, Momentum: 0.9, Epochs: 2, BatchSize: 20},
		Clip:            1,
		SampledPerRound: 100,
		Delta:           1e-3,
		EvalEvery:       5,
	}
}

// RedditLike is the Reddit next-word-prediction stand-in: a many-class
// task over 200 clients, 100 sampled, 50 rounds, reported as perplexity
// (δ = 5e-3). The "vocabulary" is 64 classes.
func RedditLike(seed prg.Seed, sc TaskScale) Task {
	rounds := sc.Rounds
	if rounds == 0 {
		rounds = 50
	}
	perClient := sc.PerClient
	if perClient == 0 {
		perClient = 40
	}
	const dim, classes = 32, 64
	fed := synth("reddit", classes, dim, 200, perClient, 800, seed)
	return Task{
		Name:            "reddit-like",
		Fed:             fed,
		NewModel:        func() ml.Model { return ml.NewLinear(dim, classes) },
		Rounds:          rounds,
		SGD:             ml.SGDConfig{LearningRate: 0.03, Momentum: 0.9, Epochs: 2, BatchSize: 20},
		Clip:            1,
		SampledPerRound: 100,
		Delta:           5e-3,
		EvalEvery:       5,
	}
}
