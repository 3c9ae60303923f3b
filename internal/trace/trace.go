// Package trace models client availability dynamics. The paper motivates
// its dropout study with a 136k-device user-behavior dataset [85] from
// which it extracts 100 volatile users (Fig. 1a); its controlled
// experiments then use a configurable Bernoulli per-round dropout rate
// (§6.1, "Dropout Model"). This package provides both: a Bernoulli model
// with a fixed rate, and a volatile-population generator with heavy-tailed
// per-client dropout propensities that reproduces Fig. 1a-style dynamics.
package trace

import (
	"fmt"

	"repro/internal/prg"
	"repro/internal/rng"
)

// DropoutModel decides whether a sampled client drops out of a round after
// being sampled (before uploading its masked update, matching §6.1).
type DropoutModel interface {
	// Drops reports whether client drops in round. Implementations must be
	// deterministic in (round, client) given their construction seed.
	Drops(round int, client int) bool
}

// Bernoulli drops every sampled client independently with a fixed rate —
// the paper's controlled model.
type Bernoulli struct {
	rate float64
	seed prg.Seed
}

// NewBernoulli builds the model; rate must be in [0, 1).
func NewBernoulli(rate float64, seed prg.Seed) (*Bernoulli, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("trace: dropout rate %v out of [0,1)", rate)
	}
	return &Bernoulli{rate: rate, seed: seed}, nil
}

// Drops implements DropoutModel.
func (b *Bernoulli) Drops(round, client int) bool {
	if b.rate == 0 {
		return false
	}
	s := prg.NewStream(prg.NewSeed(b.seed[:], []byte(fmt.Sprintf("r%d/c%d", round, client))))
	return rng.Bernoulli(s, b.rate)
}

// Volatile models a heterogeneous population: each client has a stable
// dropout propensity drawn from a Beta-like mixture — most clients are
// reliable, a minority is highly volatile — matching the bimodal dynamics
// of Fig. 1a (many rounds with 0 dropout, some rounds with heavy dropout).
type Volatile struct {
	rates []float64
	seed  prg.Seed
}

// NewVolatile builds a population of n clients. meanRate sets the average
// dropout propensity; volatileFrac the fraction of highly unreliable
// clients.
func NewVolatile(n int, meanRate, volatileFrac float64, seed prg.Seed) (*Volatile, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace: population %d", n)
	}
	if meanRate < 0 || meanRate >= 1 || volatileFrac < 0 || volatileFrac > 1 {
		return nil, fmt.Errorf("trace: meanRate %v / volatileFrac %v invalid", meanRate, volatileFrac)
	}
	s := prg.NewStream(prg.NewSeed(seed[:], []byte("volatile-population")))
	rates := make([]float64, n)
	// Split the mean budget: volatile clients carry most of the mass.
	lowRate := meanRate * 0.2
	highRate := meanRate
	if volatileFrac > 0 {
		highRate = (meanRate - (1-volatileFrac)*lowRate) / volatileFrac
		if highRate > 0.95 {
			highRate = 0.95
		}
	}
	for i := range rates {
		if s.Float64() < volatileFrac {
			rates[i] = highRate * (0.5 + s.Float64()) // jitter
		} else {
			rates[i] = lowRate * (0.5 + s.Float64())
		}
		if rates[i] >= 0.95 {
			rates[i] = 0.95
		}
	}
	return &Volatile{rates: rates, seed: seed}, nil
}

// Drops implements DropoutModel.
func (v *Volatile) Drops(round, client int) bool {
	rate := v.rates[client%len(v.rates)]
	if rate == 0 {
		return false
	}
	s := prg.NewStream(prg.NewSeed(v.seed[:], []byte(fmt.Sprintf("v/r%d/c%d", round, client))))
	return rng.Bernoulli(s, rate)
}

// RoundDropouts applies a model to a sampled set and returns the indices
// (into sampled) of the clients that drop this round, optionally capped at
// maxDrops (< 0 = uncapped). The cap models the system's dropout-tolerance
// clamp: a real deployment aborts the round beyond it, so experiments cap
// at T to study the within-tolerance regime.
func RoundDropouts(m DropoutModel, round int, sampled []int, maxDrops int) []int {
	var out []int
	for i, c := range sampled {
		if maxDrops >= 0 && len(out) >= maxDrops {
			break
		}
		if m.Drops(round, c) {
			out = append(out, i)
		}
	}
	return out
}
