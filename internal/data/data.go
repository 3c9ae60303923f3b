// Package data generates the synthetic federated datasets used in place of
// CIFAR-10/100, FEMNIST, and Reddit (ARCHITECTURE.md, "Datasets and
// models", has the substitution rationale). Each task is a Gaussian-mixture classification problem whose
// class clusters are shared globally, partitioned across clients with the
// same latent-Dirichlet-allocation (LDA) label-skew the paper uses
// (§6.1, concentration 1.0).
package data

import (
	"fmt"
	"math"

	"repro/internal/prg"
	"repro/internal/rng"
)

// Dataset is a flat supervised dataset.
type Dataset struct {
	X          [][]float64
	Y          []int
	NumClasses int
	Dim        int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// Federated is a client-partitioned dataset plus a held-out test set.
type Federated struct {
	Clients []Dataset // one shard per client
	Test    Dataset
}

// NumClients returns the number of shards.
func (f *Federated) NumClients() int { return len(f.Clients) }

// SynthConfig parameterizes the generator.
type SynthConfig struct {
	NumClasses   int
	Dim          int // feature dimension
	NumClients   int
	PerClient    int // average examples per client
	TestExamples int
	Alpha        float64 // Dirichlet concentration (1.0 in the paper)
	ClusterStd   float64 // intra-class noise (larger = harder task)
	Seed         prg.Seed
}

// Validate checks the configuration.
func (c SynthConfig) Validate() error {
	switch {
	case c.NumClasses < 2:
		return fmt.Errorf("data: NumClasses %d < 2", c.NumClasses)
	case c.Dim <= 0:
		return fmt.Errorf("data: Dim %d", c.Dim)
	case c.NumClients <= 0:
		return fmt.Errorf("data: NumClients %d", c.NumClients)
	case c.PerClient <= 0:
		return fmt.Errorf("data: PerClient %d", c.PerClient)
	case c.TestExamples <= 0:
		return fmt.Errorf("data: TestExamples %d", c.TestExamples)
	case c.Alpha <= 0:
		return fmt.Errorf("data: Alpha %v", c.Alpha)
	case c.ClusterStd <= 0:
		return fmt.Errorf("data: ClusterStd %v", c.ClusterStd)
	}
	return nil
}

// Generate builds the federated dataset. Class means are unit-norm random
// directions scaled by 2 so classes are separable but not trivially so at
// the configured ClusterStd; every client draws a per-client label
// distribution from Dirichlet(Alpha) over classes (the LDA scheme).
func Generate(cfg SynthConfig) (*Federated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := prg.NewStream(cfg.Seed)
	means := classMeans(s.Fork("means"), cfg.NumClasses, cfg.Dim)

	sample := func(st *prg.Stream, class int) []float64 {
		x := make([]float64, cfg.Dim)
		m := means[class]
		for i := range x {
			x[i] = m[i] + rng.Gaussian(st, 0, cfg.ClusterStd)
		}
		return x
	}

	fed := &Federated{Clients: make([]Dataset, cfg.NumClients)}
	dataStream := s.Fork("client-data")
	labelStream := s.Fork("client-labels")
	for c := 0; c < cfg.NumClients; c++ {
		props := rng.Dirichlet(labelStream, cfg.Alpha, cfg.NumClasses)
		n := cfg.PerClient
		shard := Dataset{NumClasses: cfg.NumClasses, Dim: cfg.Dim,
			X: make([][]float64, 0, n), Y: make([]int, 0, n)}
		for i := 0; i < n; i++ {
			class := sampleCategorical(labelStream, props)
			shard.X = append(shard.X, sample(dataStream, class))
			shard.Y = append(shard.Y, class)
		}
		fed.Clients[c] = shard
	}

	testStream := s.Fork("test")
	fed.Test = Dataset{NumClasses: cfg.NumClasses, Dim: cfg.Dim,
		X: make([][]float64, 0, cfg.TestExamples), Y: make([]int, 0, cfg.TestExamples)}
	for i := 0; i < cfg.TestExamples; i++ {
		class := int(testStream.Uint64n(uint64(cfg.NumClasses)))
		fed.Test.X = append(fed.Test.X, sample(testStream, class))
		fed.Test.Y = append(fed.Test.Y, class)
	}
	return fed, nil
}

// classMeans draws unit-norm class centers scaled by 2.
func classMeans(s *prg.Stream, classes, dim int) [][]float64 {
	means := make([][]float64, classes)
	for c := range means {
		m := make([]float64, dim)
		var norm2 float64
		for i := range m {
			m[i] = rng.Gaussian(s, 0, 1)
			norm2 += m[i] * m[i]
		}
		scale := 2.0
		if norm2 > 0 {
			scale = 2.0 / math.Sqrt(norm2)
		}
		for i := range m {
			m[i] *= scale
		}
		means[c] = m
	}
	return means
}

// sampleCategorical draws an index from a probability vector.
func sampleCategorical(s *prg.Stream, probs []float64) int {
	u := s.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}
