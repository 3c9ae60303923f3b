package trace

import (
	"math"
	"testing"

	"repro/internal/prg"
)

func seed() prg.Seed { return prg.NewSeed([]byte("trace-test")) }

func TestBernoulliRate(t *testing.T) {
	m, err := NewBernoulli(0.3, seed())
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const trials = 20000
	for r := 0; r < trials/100; r++ {
		for c := 0; c < 100; c++ {
			if m.Drops(r, c) {
				drops++
			}
		}
	}
	rate := float64(drops) / trials
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("empirical dropout rate %v, want ≈0.3", rate)
	}
}

func TestBernoulliDeterministic(t *testing.T) {
	m, _ := NewBernoulli(0.5, seed())
	for r := 0; r < 20; r++ {
		for c := 0; c < 20; c++ {
			if m.Drops(r, c) != m.Drops(r, c) {
				t.Fatal("Drops must be deterministic")
			}
		}
	}
}

func TestBernoulliZero(t *testing.T) {
	m, _ := NewBernoulli(0, seed())
	for r := 0; r < 50; r++ {
		if m.Drops(r, 3) {
			t.Fatal("zero rate must never drop")
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli(1.0, seed()); err == nil {
		t.Error("rate 1.0 should be rejected")
	}
	if _, err := NewBernoulli(-0.1, seed()); err == nil {
		t.Error("negative rate should be rejected")
	}
}

func TestVolatileHeterogeneity(t *testing.T) {
	v, err := NewVolatile(100, 0.2, 0.3, seed())
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi int
	for c := 0; c < 100; c++ {
		r := v.rates[c]
		if r < 0 || r >= 1 {
			t.Fatalf("client %d rate %v out of range", c, r)
		}
		if r < 0.1 {
			lo++
		}
		if r > 0.3 {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("population should mix reliable (%d) and volatile (%d) clients", lo, hi)
	}
	// Mean propensity in the ballpark of the configured mean.
	var mean float64
	for c := 0; c < 100; c++ {
		mean += v.rates[c]
	}
	mean /= 100
	if math.Abs(mean-0.2) > 0.1 {
		t.Errorf("mean propensity %v, want ≈0.2", mean)
	}
}

func TestVolatileValidation(t *testing.T) {
	if _, err := NewVolatile(0, 0.1, 0.1, seed()); err == nil {
		t.Error("empty population should be rejected")
	}
	if _, err := NewVolatile(10, 1.0, 0.1, seed()); err == nil {
		t.Error("meanRate 1.0 should be rejected")
	}
	if _, err := NewVolatile(10, 0.1, 1.5, seed()); err == nil {
		t.Error("volatileFrac > 1 should be rejected")
	}
}

func TestRoundDropouts(t *testing.T) {
	m, _ := NewBernoulli(0.5, seed())
	sampled := []int{10, 11, 12, 13, 14, 15, 16, 17}
	out := RoundDropouts(m, 1, sampled, -1)
	for _, idx := range out {
		if idx < 0 || idx >= len(sampled) {
			t.Fatalf("index %d out of range", idx)
		}
		if !m.Drops(1, sampled[idx]) {
			t.Fatal("reported dropout does not drop")
		}
	}
	// Cap respected.
	capped := RoundDropouts(m, 1, sampled, 2)
	if len(capped) > 2 {
		t.Fatalf("cap violated: %d dropouts", len(capped))
	}
}

func TestRoundDropoutsDistinctAcrossRounds(t *testing.T) {
	m, _ := NewBernoulli(0.5, seed())
	sampled := make([]int, 64)
	for i := range sampled {
		sampled[i] = i
	}
	a := RoundDropouts(m, 1, sampled, -1)
	b := RoundDropouts(m, 2, sampled, -1)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different rounds should produce different dropout patterns")
		}
	}
}
