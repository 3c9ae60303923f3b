package xnoise

import (
	"math"
	"testing"

	"repro/internal/field"
)

func TestRebasingVarianceAlgebra(t *testing.T) {
	p := Plan{NumClients: 8, DropoutTolerance: 3, Threshold: 5, TargetVariance: 100}
	rb, err := NewRebasing(p, nil, field.New(11), field.New(22))
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.OriginalVariance(); math.Abs(got-100.0/5) > 1e-12 {
		t.Errorf("original variance %v, want 20", got)
	}
	for d := 0; d <= 3; d++ {
		req, err := rb.RequiredVariance(d)
		if err != nil {
			t.Fatal(err)
		}
		want := 100.0 / float64(8-d)
		if math.Abs(req-want) > 1e-12 {
			t.Errorf("|D|=%d: required %v, want %v", d, req, want)
		}
		// (|U|−|D|) survivors each ending at n_u gives exactly σ²*.
		if total := float64(8-d) * req; math.Abs(total-100) > 1e-9 {
			t.Errorf("|D|=%d: total %v, want 100", d, total)
		}
	}
	if _, err := rb.RequiredVariance(4); err == nil {
		t.Error("beyond tolerance should error")
	}
}

func TestRebasingCorrectionEndToEnd(t *testing.T) {
	// Full rebasing flow with several clients: aggregate of
	// (n_o + correction) per survivor should carry variance ≈ σ²*.
	p := Plan{NumClients: 6, DropoutTolerance: 2, Threshold: 4, TargetVariance: 60}
	const dim, trials = 300, 25
	numDropped := 2
	var sum, sumSq float64
	n := 0
	for trial := 0; trial < trials; trial++ {
		agg := make([]int64, dim)
		for c := numDropped; c < p.NumClients; c++ {
			seedBase := uint64(trial*100 + c)
			rb, err := NewRebasing(p, nil, field.New(seedBase*2+1), field.New(seedBase*2+2))
			if err != nil {
				t.Fatal(err)
			}
			no := rb.OriginalNoise(dim)
			corr, err := rb.Correction(dim, numDropped)
			if err != nil {
				t.Fatal(err)
			}
			for i := range agg {
				agg[i] += no[i] + corr[i]
			}
		}
		for _, v := range agg {
			f := float64(v)
			sum += f
			sumSq += f * f
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(variance-p.TargetVariance) > 0.1*p.TargetVariance {
		t.Errorf("rebasing residual variance %v, want ≈%v", variance, p.TargetVariance)
	}
}

func TestRebasingCorrectionIsDense(t *testing.T) {
	// The correction has full model dimension — the §3.1 scalability flaw.
	p := Plan{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: 10}
	rb, _ := NewRebasing(p, nil, field.New(1), field.New(2))
	corr, err := rb.Correction(1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 1000 {
		t.Fatalf("correction length %d", len(corr))
	}
	nonZero := 0
	for _, v := range corr {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < 100 {
		t.Errorf("correction suspiciously sparse: %d non-zero of 1000", nonZero)
	}
}

// TestTable3Values reproduces Table 3 of the paper: additional per-round
// network footprint (MiB) for a surviving client, with T = |U|/2 and the
// paper's wire-size constants.
func TestTable3Values(t *testing.T) {
	cfg := DefaultFootprintConfig()
	type row struct {
		params     int64
		sampled    int
		dropout    float64
		wantRebase float64 // MiB
		wantXNoise float64 // MiB
	}
	rows := []row{
		{5_000_000, 100, 0, 11.9, 0.6},
		{50_000_000, 100, 0, 119.2, 0.6},
		{500_000_000, 100, 0, 1192.1, 0.6},
		{5_000_000, 200, 0, 11.9, 2.4},
		{5_000_000, 300, 0, 11.9, 5.5},
		{5_000_000, 100, 0.2, 11.9, 0.6},
		{5_000_000, 300, 0.3, 11.9, 5.2},
	}
	for _, r := range rows {
		sc := FootprintScenario{
			ModelParams:      r.params,
			NumSampled:       r.sampled,
			DropoutTolerance: r.sampled / 2,
			DropoutRate:      r.dropout,
		}
		reb, err := RebasingExtraBytes(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		xn, err := XNoiseExtraBytes(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(MiB(reb)-r.wantRebase) > 0.1 {
			t.Errorf("%+v: rebasing %.1f MiB, want %.1f", r, MiB(reb), r.wantRebase)
		}
		// Tolerance 0.4 MiB: the paper does not fully specify the byte
		// accounting of every cell; the shape claims (constancy in model
		// size, growth in |U|, slight decrease in d) are tested exactly
		// below.
		if math.Abs(MiB(xn)-r.wantXNoise) > 0.4 {
			t.Errorf("%+v: xnoise %.1f MiB, want %.1f", r, MiB(xn), r.wantXNoise)
		}
	}
}

func TestXNoiseFootprintInvariantOfModelSize(t *testing.T) {
	cfg := DefaultFootprintConfig()
	base := FootprintScenario{ModelParams: 5_000_000, NumSampled: 100, DropoutTolerance: 50}
	big := base
	big.ModelParams = 500_000_000
	a, _ := XNoiseExtraBytes(cfg, base)
	b, _ := XNoiseExtraBytes(cfg, big)
	if a != b {
		t.Errorf("XNoise footprint must not depend on model size: %v vs %v", a, b)
	}
	ra, _ := RebasingExtraBytes(cfg, base)
	rb, _ := RebasingExtraBytes(cfg, big)
	if rb <= ra {
		t.Error("rebasing footprint must grow with model size")
	}
}

func TestXNoiseFootprintDecreasesWithDropout(t *testing.T) {
	cfg := DefaultFootprintConfig()
	prev := math.Inf(1)
	for _, d := range []float64{0, 0.1, 0.2, 0.3} {
		sc := FootprintScenario{ModelParams: 5_000_000, NumSampled: 300,
			DropoutTolerance: 150, DropoutRate: d}
		v, err := XNoiseExtraBytes(cfg, sc)
		if err != nil {
			t.Fatal(err)
		}
		if v > prev {
			t.Errorf("footprint should not grow with dropout: d=%v → %v (prev %v)", d, v, prev)
		}
		prev = v
	}
}

func TestFootprintMidRemovalDropoutCost(t *testing.T) {
	cfg := DefaultFootprintConfig()
	sc := FootprintScenario{ModelParams: 5_000_000, NumSampled: 100, DropoutTolerance: 50}
	noMid, _ := XNoiseExtraBytes(cfg, sc)
	sc.MidRemovalDrops = 3
	withMid, _ := XNoiseExtraBytes(cfg, sc)
	wantDelta := 3.0 * 50 * cfg.ShareBytes
	if math.Abs((withMid-noMid)-wantDelta) > 1e-9 {
		t.Errorf("mid-removal delta %v, want %v", withMid-noMid, wantDelta)
	}
}

// TestXNoiseExtraBytesToleranceBoundary: a scenario may tolerate from no
// dropout to every sampled client but one dropping, and no more.
func TestXNoiseExtraBytesToleranceBoundary(t *testing.T) {
	cfg := DefaultFootprintConfig()
	sc := FootprintScenario{ModelParams: 5_000_000, NumSampled: 100}
	if got, err := XNoiseExtraBytes(cfg, sc); err != nil || got != 0 {
		t.Errorf("T = 0: %v bytes (%v), want 0", got, err)
	}
	sc.DropoutTolerance = 99
	got, err := XNoiseExtraBytes(cfg, sc)
	if err != nil {
		t.Fatalf("T = NumSampled − 1: %v", err)
	}
	if want := 100*99*cfg.CiphertextBytes + 99*cfg.SeedBytes; got != want {
		t.Errorf("T = NumSampled − 1: %v bytes, want %v", got, want)
	}
	sc.DropoutTolerance = 100
	if _, err := XNoiseExtraBytes(cfg, sc); err == nil {
		t.Error("T = NumSampled should be refused")
	}
}

func TestFootprintErrors(t *testing.T) {
	cfg := DefaultFootprintConfig()
	if _, err := XNoiseExtraBytes(cfg, FootprintScenario{NumSampled: 0}); err == nil {
		t.Error("bad scenario should error")
	}
	if _, err := RebasingExtraBytes(cfg, FootprintScenario{ModelParams: 0}); err == nil {
		t.Error("zero model should error")
	}
}

func TestNewRebasingValidatesPlan(t *testing.T) {
	if _, err := NewRebasing(Plan{}, nil, field.New(1), field.New(2)); err == nil {
		t.Error("invalid plan should error")
	}
}
