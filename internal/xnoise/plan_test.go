package xnoise

import (
	"math"
	"testing"
	"testing/quick"
)

func validPlan(u, T int) Plan {
	return Plan{
		NumClients:       u,
		DropoutTolerance: T,
		Threshold:        u - T,
		TargetVariance:   1.0,
	}
}

func TestValidate(t *testing.T) {
	good := []Plan{
		validPlan(16, 5), // t = |U| − T
		{NumClients: 4, DropoutTolerance: 3, Threshold: 1, TargetVariance: 1},                        // T = |U| − 1, t = 1
		{NumClients: 4, DropoutTolerance: 0, Threshold: 4, TargetVariance: 1},                        // t = |U|, T = 0
		{NumClients: 4, DropoutTolerance: 1, Threshold: 3, CollusionTolerance: 2, TargetVariance: 1}, // T_C = t − 1
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("case %d (%+v): %v", i, p, err)
		}
	}
	bad := []Plan{
		{NumClients: 0, DropoutTolerance: 0, Threshold: 1, TargetVariance: 1},
		{NumClients: 4, DropoutTolerance: 4, Threshold: 1, TargetVariance: 1},  // T >= |U|
		{NumClients: 4, DropoutTolerance: -1, Threshold: 1, TargetVariance: 1}, // T < 0
		{NumClients: 4, DropoutTolerance: 1, Threshold: 0, TargetVariance: 1},  // t < 1
		{NumClients: 4, DropoutTolerance: 1, Threshold: 5, TargetVariance: 1},  // t > |U|
		{NumClients: 4, DropoutTolerance: 2, Threshold: 3, TargetVariance: 1},  // t unreachable after T drops
		{NumClients: 4, DropoutTolerance: 1, Threshold: 3, CollusionTolerance: 3, TargetVariance: 1},
		{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: 0},
		{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: math.NaN()},
		{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v): expected validation error", i, p)
		}
	}
}

// TestPaperExample reproduces the worked example of §3.2/Figure 4:
// |U| = 4, T = 2, σ²* = 1 → components of level 1/4, 1/12, 1/6 and
// per-client total 1/2.
func TestPaperExample(t *testing.T) {
	p := validPlan(4, 2)
	want := []float64{1.0 / 4, 1.0 / 12, 1.0 / 6}
	for k, w := range want {
		got, err := p.ComponentVariance(k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 1e-15 {
			t.Errorf("component %d variance %v, want %v", k, got, w)
		}
	}
	if pc := p.PerClientVariance(); math.Abs(pc-0.5) > 1e-15 {
		t.Errorf("per-client variance %v, want 1/2", pc)
	}
	// Removal per Figure 4(b-d): |D|=0 removes k∈{1,2}; |D|=1 removes {2};
	// |D|=2 removes nothing.
	cases := map[int][]int{0: {1, 2}, 1: {2}, 2: nil}
	for d, wantKs := range cases {
		ks := p.RemovalComponents(d)
		if len(ks) != len(wantKs) {
			t.Fatalf("|D|=%d: removal set %v, want %v", d, ks, wantKs)
		}
		for i := range ks {
			if ks[i] != wantKs[i] {
				t.Fatalf("|D|=%d: removal set %v, want %v", d, ks, wantKs)
			}
		}
	}
}

func TestComponentsSumToPerClient(t *testing.T) {
	f := func(uRaw, tRaw uint8) bool {
		u := int(uRaw%60) + 2
		T := int(tRaw) % (u - 1)
		p := validPlan(u, T)
		var sum float64
		for k := 0; k <= T; k++ {
			cv, err := p.ComponentVariance(k)
			if err != nil {
				return false
			}
			sum += cv
		}
		return math.Abs(sum-p.PerClientVariance()) < 1e-9*p.PerClientVariance()+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTheorem1 is the headline property test: for every valid (|U|, T, |D|)
// with |D| ≤ T, the achieved variance after removal is exactly σ²*.
func TestTheorem1(t *testing.T) {
	f := func(uRaw, tRaw, dRaw uint8, varRaw uint16) bool {
		u := int(uRaw%60) + 2
		T := int(tRaw) % (u - 1)
		d := 0
		if T > 0 {
			d = int(dRaw) % (T + 1)
		}
		p := validPlan(u, T)
		p.TargetVariance = 0.1 + float64(varRaw)/100
		got := p.AchievedVariance(d)
		return math.Abs(got-p.TargetVariance) < 1e-9*p.TargetVariance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTheorem1WithCollusionInflation(t *testing.T) {
	// With T_C > 0 the residual is σ²*·t/(t−T_C) ≥ σ²* (never less).
	p := Plan{NumClients: 20, DropoutTolerance: 6, Threshold: 14,
		CollusionTolerance: 2, TargetVariance: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	infl := 14.0 / 12.0
	for d := 0; d <= 6; d++ {
		got := p.AchievedVariance(d)
		if math.Abs(got-infl) > 1e-9 {
			t.Errorf("|D|=%d: achieved %v, want %v", d, got, infl)
		}
		if got < p.TargetVariance {
			t.Errorf("|D|=%d: inflated achieved %v below target", d, got)
		}
	}
}

func TestExcessVarianceEquation1(t *testing.T) {
	// What the server removes — the aggregate's variance before removal
	// less what is achieved, and survivors × removed components — is
	// l_ex = (T−|D|)/(|U|−T)·σ²* (Eq. 1).
	p := validPlan(16, 5)
	for d := 0; d <= 5; d++ {
		lex := float64(5-d) / float64(16-5) * p.TargetVariance
		if got := p.AggregateVarianceBeforeRemoval(d) - p.AchievedVariance(d); math.Abs(got-lex) > 1e-12 {
			t.Errorf("|D|=%d: removed %v, want l_ex %v", d, got, lex)
		}
		var removedPer float64
		for _, k := range p.RemovalComponents(d) {
			cv, _ := p.ComponentVariance(k)
			removedPer += cv
		}
		if math.Abs(float64(16-d)*removedPer-lex) > 1e-12 {
			t.Errorf("|D|=%d: survivors×components %v != l_ex %v", d, float64(16-d)*removedPer, lex)
		}
	}
}

func TestBeyondToleranceNoRemoval(t *testing.T) {
	p := validPlan(10, 3)
	got := p.AchievedVariance(5) // |D| > T
	want := p.AggregateVarianceBeforeRemoval(5)
	if got != want {
		t.Errorf("beyond tolerance: achieved %v, want no-removal level %v", got, want)
	}
	// Still at least the target: 5 survivors × 1/(10−3) each... may be
	// below target — which is exactly the failure mode; just confirm the
	// monotone relationship.
	if p.AchievedVariance(4) < p.AchievedVariance(5) {
		t.Error("achieved variance should not increase with extra dropouts beyond T")
	}
}

func TestWorstCaseMalicious(t *testing.T) {
	// §3.3, "Prevention from Understating Dropout": T clients dropped, but
	// the server claims none did, so the |U|−T survivors remove every
	// component k ≥ 1 and keep only component 0. With T = 0.6·|U|, only
	// (1 − T/|U|) = 40% of the target noise remains.
	p := Plan{NumClients: 10, DropoutTolerance: 6, Threshold: 4, TargetVariance: 1}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	kept := p.PerClientVariance()
	for _, k := range p.RemovalComponents(0) {
		cv, _ := p.ComponentVariance(k)
		kept -= cv
	}
	if got := float64(p.NumClients-p.DropoutTolerance) * kept; math.Abs(got-0.4) > 1e-12 {
		t.Errorf("worst-case malicious variance %v, want 0.4", got)
	}
}

// TestPlanDefinitionOne: the §2.3.1 schemes are plans with T = 0 and
// Threshold |U|. Orig's survivors carry σ²·(u−d)/u; Con-θ plans σ²/(1−θ),
// overshooting without dropout and meeting the target when exactly θ·u
// drop; local DP plans u·σ² and carries (u−d)·σ². At u = 16 every value
// below is exact in binary floating point, so it is compared with ==.
func TestPlanDefinitionOne(t *testing.T) {
	defOne := func(target float64) Plan {
		return Plan{NumClients: 16, Threshold: 16, TargetVariance: target}
	}
	for _, c := range []struct {
		name string
		plan Plan
		d    int
		want float64
	}{
		{"orig, 4 dropped", defOne(1), 4, 0.75},
		{"orig, no dropout", defOne(2.5), 0, 2.5},
		{"con-0.5, no dropout", defOne(1 / (1 - 0.5)), 0, 2},
		{"con-0.5, θ-matched dropout", defOne(1 / (1 - 0.5)), 8, 1},
		{"con-0.75, 4 dropped", defOne(1 / (1 - 0.75)), 4, 3},
		{"local DP, 3 dropped", defOne(16 * 1.5), 3, 13 * 1.5},
	} {
		p := c.plan
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p.NumComponents() != 1 || len(p.RemovalComponents(0)) != 0 {
			t.Fatalf("%s: %d components, removal set %v; want one, none removable",
				c.name, p.NumComponents(), p.RemovalComponents(0))
		}
		cv, err := p.ComponentVariance(0)
		if err != nil {
			t.Fatal(err)
		}
		if cv != p.TargetVariance/float64(p.NumClients) || p.PerClientVariance() != cv {
			t.Errorf("%s: component 0 %v, per client %v; want σ²/u = %v",
				c.name, cv, p.PerClientVariance(), p.TargetVariance/float64(p.NumClients))
		}
		if got := p.AchievedVariance(c.d); got != c.want {
			t.Errorf("%s: achieved %v, want %v", c.name, got, c.want)
		}
	}
	// Con-θ underestimating its dropout undershoots: a privacy deficit.
	if got := defOne(1 / (1 - 0.5)).AchievedVariance(12); got >= 1 {
		t.Errorf("con-0.5 with 12 dropped: achieved %v, want < 1", got)
	}
}

func TestInflationFactor(t *testing.T) {
	p := validPlan(16, 5)
	if p.InflationFactor() != 1 {
		t.Error("no collusion → inflation 1")
	}
	p.CollusionTolerance = 1
	want := float64(p.Threshold) / float64(p.Threshold-1)
	if math.Abs(p.InflationFactor()-want) > 1e-15 {
		t.Errorf("inflation %v, want %v", p.InflationFactor(), want)
	}
}

func TestComponentVarianceBounds(t *testing.T) {
	p := validPlan(8, 3)
	if _, err := p.ComponentVariance(-1); err == nil {
		t.Error("negative k should error")
	}
	if _, err := p.ComponentVariance(4); err == nil {
		t.Error("k > T should error")
	}
}
