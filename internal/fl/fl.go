// Package fl is the federated-learning engine: FedAvg rounds over a
// client population with per-round sampling, client dropout, L2 clipping,
// DSkellam encoding, and one of the paper's noise-enforcement schemes
// (§2.3.1 and §3):
//
//	SchemeNone          — no DP noise (the non-private reference)
//	SchemeOrig          — Definition 1: each client adds χ(σ²*/|U|); under
//	                      dropout the aggregate is under-noised and the
//	                      ledger overruns the budget
//	SchemeEarly         — Orig, but training stops when the budget is spent
//	SchemeConservative  — Orig with noise planned for an assumed dropout
//	                      rate θ (the Con-θ baselines of Fig. 1)
//	SchemeXNoise        — Dordis's add-then-remove enforcement (Def. 2)
//	SchemeCentralDP     — the trusted server adds σ²* itself (§2.2)
//	SchemeLocalDP       — every client adds σ²* on its own (§2.2)
//
// Every scheme whose clients add noise is one xnoise.Plan, built once per
// run: Definition 1 is Definition 2 with no removable components (T = 0),
// so Orig and Early plan σ²*, Con-θ plans σ²*/(1−θ), local DP plans
// |U|·σ²*, and XNoise plans σ²* with T = ⌊frac·|U|⌋. A round draws each
// survivor's kept components in one Skellam draw and accounts the plan's
// AchievedVariance(|D|).
//
// Aggregation is performed in the ℤ_{2^b} ring on DSkellam-encoded updates,
// exactly the math the secure-aggregation layer computes (SecAgg masking
// cancels bit-exactly; packages secagg and core prove that separately,
// end to end).
package fl

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/dp"
	"repro/internal/ml"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/rng"
	"repro/internal/skellam"
	"repro/internal/trace"
	"repro/internal/xnoise"
)

// Scheme selects the noise-enforcement strategy.
type Scheme int

// The schemes compared throughout the paper's evaluation.
const (
	SchemeNone Scheme = iota
	SchemeOrig
	SchemeEarly
	SchemeConservative
	SchemeXNoise
	// SchemeCentralDP is the §2.2 central-DP baseline: clients add no
	// noise; the (trusted) server perturbs the aggregate with exactly the
	// target variance. Utility-optimal, but the server sees raw updates —
	// the trust assumption distributed DP exists to remove.
	SchemeCentralDP
	// SchemeLocalDP is the §2.2 local-DP baseline: every client adds
	// noise sufficient for its own guarantee (the full central target),
	// so the aggregate accumulates |U|× the necessary noise —
	// "significantly harming the model utility".
	SchemeLocalDP
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeOrig:
		return "orig"
	case SchemeEarly:
		return "early"
	case SchemeConservative:
		return "conservative"
	case SchemeXNoise:
		return "xnoise"
	case SchemeCentralDP:
		return "central-dp"
	case SchemeLocalDP:
		return "local-dp"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Task describes one training task (dataset + model + hyperparameters),
// mirroring §6.1's per-task configuration.
type Task struct {
	Name            string
	Fed             *data.Federated
	NewModel        func() ml.Model
	Rounds          int
	SGD             ml.SGDConfig
	Clip            float64 // L2 clipping bound for model updates
	SampledPerRound int
	Delta           float64 // DP δ (reciprocal of population size in §6.1)
	EvalEvery       int     // evaluate test metrics every k rounds (≥1)
}

// Validate checks the task.
func (t Task) Validate() error {
	switch {
	case t.Fed == nil || t.Fed.NumClients() == 0:
		return fmt.Errorf("fl: task %q has no data", t.Name)
	case t.NewModel == nil:
		return fmt.Errorf("fl: task %q has no model factory", t.Name)
	case t.Rounds <= 0:
		return fmt.Errorf("fl: task %q rounds %d", t.Name, t.Rounds)
	case t.Clip <= 0:
		return fmt.Errorf("fl: task %q clip %v", t.Name, t.Clip)
	case t.SampledPerRound < 2 || t.SampledPerRound > t.Fed.NumClients():
		return fmt.Errorf("fl: task %q samples %d of %d clients", t.Name, t.SampledPerRound, t.Fed.NumClients())
	case t.Delta <= 0 || t.Delta >= 1:
		return fmt.Errorf("fl: task %q delta %v", t.Name, t.Delta)
	case t.EvalEvery < 1:
		return fmt.Errorf("fl: task %q EvalEvery %d", t.Name, t.EvalEvery)
	}
	return t.SGD.Validate()
}

// Config selects the scheme and environment for one run.
type Config struct {
	Scheme            Scheme
	EpsilonBudget     float64            // ε_G; ignored by SchemeNone
	ConservativeTheta float64            // assumed dropout rate for SchemeConservative
	Dropout           trace.DropoutModel // nil = no dropout
	Seed              prg.Seed
}

const (
	ringBits = 20 // the DSkellam ring width b

	// toleranceFrac is T/|U| for XNoise, the Table 3 setting.
	toleranceFrac = 0.5
)

// RoundStats records one round's outcome.
type RoundStats struct {
	Round            int
	Sampled          int
	Dropped          int
	Accuracy         float64 // NaN when not evaluated this round
	MeanLoss         float64 // NaN when not evaluated this round
	Epsilon          float64 // cumulative ε after this round
	AchievedVariance float64 // central noise variance (grid units)
}

// Result is a completed run.
type Result struct {
	Task            string
	Scheme          Scheme
	Stats           []RoundStats
	RoundsCompleted int
	StoppedEarly    bool
	FinalAccuracy   float64
	FinalLoss       float64
	Epsilon         float64
	Model           ml.Model
	// PlannedMu is the per-round central noise target σ²* in grid units.
	PlannedMu float64
}

// Perplexity returns the language-model metric for the final loss.
func (r *Result) Perplexity() float64 { return ml.Perplexity(r.FinalLoss) }

// plan bundles everything derived during offline noise planning.
type plan struct {
	codec skellam.Params
	mu    float64 // per-round central target σ²* (grid units)
	// noise is the clients' noise; nil when they add none (SchemeNone,
	// SchemeCentralDP).
	noise  *xnoise.Plan
	d1, d2 float64
	q      float64 // sampling rate
}

// planNoise performs offline noise planning (§2.2): fix the DSkellam codec
// scale by a 3-step fixed point (scale ↔ noise magnitude), plan the
// minimum per-round μ* under subsampling amplification, then the scheme's
// client noise as one xnoise.Plan.
func planNoise(task Task, cfg Config, dim int) (plan, error) {
	q := float64(task.SampledPerRound) / float64(task.Fed.NumClients())
	sigmaGuess := task.Clip // model-unit central noise std, refined below
	var p plan
	for iter := 0; iter < 3; iter++ {
		scale, err := skellam.ChooseScale(dim, task.Clip, ringBits, task.SampledPerRound, sigmaGuess, 3)
		if err != nil {
			return plan{}, err
		}
		codec := skellam.Params{
			Dim: dim, Bits: ringBits, Clip: task.Clip, Scale: scale,
			Beta: math.Exp(-0.5), K: 3, NumClients: task.SampledPerRound,
		}
		d1, d2 := codec.Sensitivities()
		if cfg.Scheme == SchemeNone {
			p = plan{codec: codec, d1: d1, d2: d2, q: q}
			return p, nil
		}
		mu, err := dp.PlanSkellamMuSampled(cfg.EpsilonBudget, task.Delta, d1, d2, task.Rounds, q)
		if err != nil {
			return plan{}, err
		}
		p = plan{codec: codec, mu: mu, d1: d1, d2: d2, q: q}
		sigmaGuess = math.Sqrt(mu) / scale
	}
	// Definition 1 schemes are plans with T = 0: no removable components,
	// so the Threshold (which only bounds collusion inflation) is |U|.
	u := task.SampledPerRound
	noise := xnoise.Plan{NumClients: u, Threshold: u, TargetVariance: p.mu}
	switch cfg.Scheme {
	case SchemeCentralDP:
		return p, nil // the server adds the whole target itself
	case SchemeConservative:
		theta := cfg.ConservativeTheta
		if theta < 0 || theta >= 1 {
			return plan{}, fmt.Errorf("fl: conservative θ=%v out of [0,1)", theta)
		}
		noise.TargetVariance = p.mu / (1 - theta)
	case SchemeLocalDP:
		// A local guarantee cannot lean on aggregation: each client adds
		// noise at the full central level, accumulating |U|·μ overall.
		noise.TargetVariance = float64(u) * p.mu
	case SchemeXNoise:
		noise.DropoutTolerance = min(int(toleranceFrac*float64(u)), u-1)
		noise.Threshold = u - noise.DropoutTolerance
	}
	if err := noise.Validate(); err != nil {
		return plan{}, err
	}
	p.noise = &noise
	return p, nil
}

// Run executes the training run.
func Run(task Task, cfg Config) (*Result, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	master := prg.NewStream(prg.NewSeed(cfg.Seed[:], []byte("fl/"+task.Name)))
	model := task.NewModel()
	dim := model.NumParams()

	np, err := planNoise(task, cfg, dim)
	if err != nil {
		return nil, err
	}

	var ledger *dp.SampledLedger
	if cfg.Scheme != SchemeNone {
		ledger, err = dp.NewSampledLedger(dp.MechanismSkellam, task.Delta, np.d2, np.d1, np.q)
		if err != nil {
			return nil, err
		}
	}

	res := &Result{Task: task.Name, Scheme: cfg.Scheme, PlannedMu: np.mu,
		FinalAccuracy: math.NaN(), FinalLoss: math.NaN()}
	params := make([]float64, dim)
	model.Params(params)

	sampleStream := master.Fork("sampling")
	trainStream := master.Fork("training")
	noiseStream := master.Fork("noise")
	encodeStream := master.Fork("encode")

	for round := 1; round <= task.Rounds; round++ {
		// Per-round shared rotation seed (server broadcast).
		codec := np.codec
		codec.RotationSeed = prg.NewSeed(cfg.Seed[:], []byte(fmt.Sprintf("rot/%s/%d", task.Name, round)))

		sampled := rng.SampleK(sampleStream, task.Fed.NumClients(), task.SampledPerRound)

		// Dropout: after sampling, before upload (§6.1). XNoise caps at T;
		// the others observe uncapped dropout.
		var droppedIdx map[int]bool
		numDropped := 0
		if cfg.Dropout != nil {
			maxDrops := -1
			if cfg.Scheme == SchemeXNoise {
				maxDrops = np.noise.DropoutTolerance
			}
			dropList := trace.RoundDropouts(cfg.Dropout, round, sampled, maxDrops)
			droppedIdx = make(map[int]bool, len(dropList))
			for _, i := range dropList {
				droppedIdx[i] = true
			}
			numDropped = len(dropList)
		}
		survivors := task.SampledPerRound - numDropped
		if survivors < 2 {
			continue // round aborts; no release, no budget spent
		}

		// Exact-cancellation shortcut: the server regenerates the removed
		// components k > |D| from the very seeds the client used, so
		// addition followed by removal cancels bit-for-bit (verified end to
		// end in packages secagg and core). What each survivor leaves in
		// the aggregate is components k ≤ min(|D|, T) — component 0 alone
		// for a Definition 1 plan — drawn as one Skellam draw per
		// coordinate at their summed variance.
		var kept float64
		if np.noise != nil {
			for k := 0; k <= min(numDropped, np.noise.DropoutTolerance); k++ {
				cv, err := np.noise.ComponentVariance(k)
				if err != nil {
					return nil, err
				}
				kept += cv
			}
		}

		// Local training and aggregation of the survivors: one encoder, one
		// encoded vector and one noise buffer serve every client of the
		// round in turn.
		encoder, err := skellam.NewEncoder(codec)
		if err != nil {
			return nil, err
		}
		agg := ring.NewVector(codec.Bits, codec.PaddedDim())
		enc := ring.NewVector(codec.Bits, codec.PaddedDim())
		noise := make([]int64, codec.PaddedDim())
		for i, clientIdx := range sampled {
			if droppedIdx[i] {
				continue
			}
			shard := task.Fed.Clients[clientIdx]
			local := model.Clone()
			if _, err := ml.TrainLocal(local, task.SGD, shard.X, shard.Y, trainStream); err != nil {
				return nil, err
			}
			after := make([]float64, dim)
			local.Params(after)
			delta := ml.Delta(params, after)
			ml.ClipL2(delta, task.Clip)

			if err := encoder.EncodeInto(enc, delta, encodeStream); err != nil {
				return nil, err
			}
			if kept > 0 {
				rng.SkellamVector(noiseStream, kept, noise)
				if err := enc.AddSignedInPlace(noise); err != nil {
					return nil, err
				}
			}
			if err := agg.AddInPlace(enc); err != nil {
				return nil, err
			}
		}

		achieved := 0.0
		if np.noise != nil {
			achieved = np.noise.AchievedVariance(numDropped)
		}
		if cfg.Scheme == SchemeCentralDP {
			// The trusted server adds exactly the target — dropout cannot
			// dent it because no noise share travels with the clients.
			rng.SkellamVector(noiseStream, np.mu, noise)
			if err := agg.AddSignedInPlace(noise); err != nil {
				return nil, err
			}
			achieved = np.mu
		}

		// Decode, average, apply.
		sum, err := skellam.Decode(codec, agg)
		if err != nil {
			return nil, err
		}
		inv := 1 / float64(survivors)
		for i := range params {
			params[i] += sum[i] * inv
		}
		model.SetParams(params)

		// Accounting.
		eps := 0.0
		if ledger != nil {
			eps = ledger.RecordRound(achieved)
		}

		stats := RoundStats{
			Round: round, Sampled: task.SampledPerRound, Dropped: numDropped,
			Accuracy: math.NaN(), MeanLoss: math.NaN(),
			Epsilon: eps, AchievedVariance: achieved,
		}
		if round%task.EvalEvery == 0 || round == task.Rounds {
			stats.Accuracy = ml.Accuracy(model, task.Fed.Test.X, task.Fed.Test.Y)
			stats.MeanLoss = ml.MeanLoss(model, task.Fed.Test.X, task.Fed.Test.Y)
			res.FinalAccuracy = stats.Accuracy
			res.FinalLoss = stats.MeanLoss
		}
		res.Stats = append(res.Stats, stats)
		res.RoundsCompleted = round
		res.Epsilon = eps

		if cfg.Scheme == SchemeEarly && eps >= cfg.EpsilonBudget {
			res.StoppedEarly = true
			break
		}
	}
	if math.IsNaN(res.FinalAccuracy) {
		res.FinalAccuracy = ml.Accuracy(model, task.Fed.Test.X, task.Fed.Test.Y)
		res.FinalLoss = ml.MeanLoss(model, task.Fed.Test.X, task.Fed.Test.Y)
	}
	res.Model = model
	return res, nil
}
