package data

import (
	"testing"

	"repro/internal/prg"
)

func baseCfg() SynthConfig {
	return SynthConfig{
		NumClasses:   10,
		Dim:          16,
		NumClients:   20,
		PerClient:    50,
		TestExamples: 200,
		Alpha:        1.0,
		ClusterStd:   1.0,
		Seed:         prg.NewSeed([]byte("data-test")),
	}
}

func TestGenerateShapes(t *testing.T) {
	fed, err := Generate(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if fed.NumClients() != 20 {
		t.Fatalf("clients %d", fed.NumClients())
	}
	for i, c := range fed.Clients {
		if c.Len() != 50 {
			t.Fatalf("client %d has %d examples", i, c.Len())
		}
		for j, x := range c.X {
			if len(x) != 16 {
				t.Fatalf("client %d example %d dim %d", i, j, len(x))
			}
			if c.Y[j] < 0 || c.Y[j] >= 10 {
				t.Fatalf("label out of range: %d", c.Y[j])
			}
		}
	}
	if fed.Test.Len() != 200 {
		t.Fatalf("test size %d", fed.Test.Len())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Clients[3].Y[7] != b.Clients[3].Y[7] ||
		a.Clients[3].X[7][2] != b.Clients[3].X[7][2] {
		t.Fatal("generation must be deterministic for a fixed seed")
	}
	cfg := baseCfg()
	cfg.Seed = prg.NewSeed([]byte("other"))
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Clients[0].Y {
		if a.Clients[0].Y[i] != c.Clients[0].Y[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should give different data")
	}
}

func TestDirichletSkew(t *testing.T) {
	// α = 0.1 must concentrate each client on fewer classes than α = 100
	// (→IID); the measure is the mean share of a client's majority class.
	mk := func(alpha float64) float64 {
		cfg := baseCfg()
		cfg.Alpha = alpha
		cfg.NumClients = 50
		fed, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range fed.Clients {
			counts := make([]int, cfg.NumClasses)
			top := 0
			for _, y := range c.Y {
				counts[y]++
				if counts[y] > top {
					top = counts[y]
				}
			}
			sum += float64(top) / float64(len(c.Y))
		}
		return sum / float64(len(fed.Clients))
	}
	sparse := mk(0.1)
	iid := mk(100)
	if iid > 0.3 {
		t.Errorf("α=100 should be near IID (majority share ≈ 1/10), got %v", iid)
	}
	if sparse < 0.6 {
		t.Errorf("α=0.1 should be strongly skewed, majority share %v", sparse)
	}
}

func TestValidate(t *testing.T) {
	bad := []func(*SynthConfig){
		func(c *SynthConfig) { c.NumClasses = 1 },
		func(c *SynthConfig) { c.Dim = 0 },
		func(c *SynthConfig) { c.NumClients = 0 },
		func(c *SynthConfig) { c.PerClient = 0 },
		func(c *SynthConfig) { c.TestExamples = 0 },
		func(c *SynthConfig) { c.Alpha = 0 },
		func(c *SynthConfig) { c.ClusterStd = 0 },
	}
	for i, mutate := range bad {
		cfg := baseCfg()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestTaskIsLearnable(t *testing.T) {
	// The generated task must be solvable well above chance by a linear
	// model on pooled data, or utility experiments would be meaningless.
	// Verified indirectly: nearest-class-mean on the test set.
	cfg := baseCfg()
	cfg.ClusterStd = 0.8
	fed, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Estimate class means from pooled training data.
	sums := make([][]float64, cfg.NumClasses)
	counts := make([]int, cfg.NumClasses)
	for c := range sums {
		sums[c] = make([]float64, cfg.Dim)
	}
	for _, shard := range fed.Clients {
		for i, x := range shard.X {
			y := shard.Y[i]
			counts[y]++
			for j, v := range x {
				sums[y][j] += v
			}
		}
	}
	for c := range sums {
		if counts[c] == 0 {
			continue
		}
		for j := range sums[c] {
			sums[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, x := range fed.Test.X {
		best, bestD := -1, 0.0
		for c := range sums {
			var d float64
			for j, v := range x {
				diff := v - sums[c][j]
				d += diff * diff
			}
			if best == -1 || d < bestD {
				best, bestD = c, d
			}
		}
		if best == fed.Test.Y[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(fed.Test.Len())
	if acc < 0.5 { // chance is 0.1
		t.Fatalf("nearest-mean accuracy %v too low; task not learnable", acc)
	}
}
