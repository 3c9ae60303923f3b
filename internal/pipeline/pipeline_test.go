package pipeline

import (
	"cmp"
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestWorkflowValidate(t *testing.T) {
	if err := DistributedDPWorkflow().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Workflow{{Name: "a", Resource: ClientCompute}, {Name: "b", Resource: ClientCompute}}
	if err := bad.Validate(); err == nil {
		t.Error("adjacent same-resource stages should be rejected")
	}
	if err := (Workflow{}).Validate(); err == nil {
		t.Error("empty workflow should be rejected")
	}
}

func TestTable1Structure(t *testing.T) {
	w := DistributedDPWorkflow()
	wantRes := []Resource{ClientCompute, Communication, ServerCompute, Communication, ClientCompute}
	if len(w) != 5 {
		t.Fatalf("workflow has %d stages, want 5", len(w))
	}
	for i, r := range wantRes {
		if w[i].Resource != r {
			t.Errorf("stage %d resource %v, want %v", i, w[i].Resource, r)
		}
	}
	prev := w.prevSameResource()
	want := []int{-1, -1, -1, 1, 0}
	for i := range want {
		if prev[i] != want[i] {
			t.Errorf("prevSameResource[%d] = %d, want %d", i, prev[i], want[i])
		}
	}
}

func TestFitStageRecoversExactBetas(t *testing.T) {
	truth := Betas{0.002, 0.5, 3.0}
	var samples []Sample
	for _, d := range []float64{1e4, 1e5, 1e6} {
		for m := 1; m <= 8; m++ {
			tau := truth[0]*d/float64(m) + truth[1]*float64(m) + truth[2]
			samples = append(samples, Sample{D: d, M: m, Tau: tau})
		}
	}
	got, err := FitStage(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 1e-6*(1+truth[i]) {
			t.Errorf("β%d = %v, want %v", i+1, got[i], truth[i])
		}
	}
}

// TestFitModelRecoversPerfModel: profiling samples generated from a known
// PerfModel's StageTime, per stage of the Table 1 workflow, fit back to
// that model's β coefficients within a relative 1e-6; a sample-set count
// that does not match the workflow is refused.
func TestFitModelRecoversPerfModel(t *testing.T) {
	w := DistributedDPWorkflow()
	truth := PerfModel{Stages: []Betas{
		{0.002, 0.5, 3.0}, {0.01, 2.0, 40}, {0.004, 0, 1.5}, {0.001, 1.0, 20}, {0.0005, 0.25, 0},
	}}
	perStage := make([][]Sample, len(w))
	for s := range w {
		for _, d := range []float64{1e4, 1e5, 1e6} {
			for m := 1; m <= 8; m++ {
				perStage[s] = append(perStage[s], Sample{D: d, M: m, Tau: truth.StageTime(s, d, m)})
			}
		}
	}
	got, err := FitModel(w, perStage)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(w); err != nil {
		t.Fatal(err)
	}
	for s, want := range truth.Stages {
		for i := range want {
			if math.Abs(got.Stages[s][i]-want[i]) > 1e-6*(1+want[i]) {
				t.Errorf("stage %d (%s): β%d = %v, want %v", s, w[s].Name, i+1, got.Stages[s][i], want[i])
			}
		}
	}
	if _, err := FitModel(w, perStage[1:]); err == nil {
		t.Error("FitModel accepted 4 sample sets for a 5-stage workflow")
	}
}

func TestFitStageErrors(t *testing.T) {
	if _, err := FitStage([]Sample{{D: 1, M: 1, Tau: 1}}); err == nil {
		t.Error("too few samples should error")
	}
	// Degenerate: all identical rows.
	same := []Sample{{D: 10, M: 2, Tau: 5}, {D: 10, M: 2, Tau: 5}, {D: 10, M: 2, Tau: 5}}
	if _, err := FitStage(same); err == nil {
		t.Error("degenerate design should error")
	}
	if _, err := FitStage([]Sample{{D: 1, M: 0, Tau: 1}, {D: 2, M: 1, Tau: 1}, {D: 3, M: 2, Tau: 1}}); err == nil {
		t.Error("m=0 sample should error")
	}
}

func TestFitStageClampsNegative(t *testing.T) {
	// Noisy data that would fit a slightly negative intervention term.
	samples := []Sample{
		{D: 100, M: 1, Tau: 100.0}, {D: 100, M: 2, Tau: 49.9}, {D: 100, M: 4, Tau: 25.2},
		{D: 200, M: 1, Tau: 200.1}, {D: 200, M: 2, Tau: 99.8},
	}
	b, err := FitStage(samples)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range b {
		if v < 0 {
			t.Errorf("β%d = %v negative after clamp", i+1, v)
		}
	}
}

func TestSimulateHandComputed(t *testing.T) {
	// Two stages (c-comp, comm), τ = [1, 2], m = 2:
	// s0c0 [0,1], s0c1 [1,2]; s1c0 [1,3], s1c1 [3,5]. Makespan 5.
	w := Workflow{{Name: "a", Resource: ClientCompute}, {Name: "b", Resource: Communication}}
	sched, err := Simulate(w, []float64{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Makespan != 5 {
		t.Fatalf("makespan %v, want 5", sched.Makespan)
	}
	want := []Interval{
		{0, 0, 0, 1}, {0, 1, 1, 2},
		{1, 0, 1, 3}, {1, 1, 3, 5},
	}
	for i, iv := range want {
		if sched.Intervals[i] != iv {
			t.Errorf("interval %d = %+v, want %+v", i, sched.Intervals[i], iv)
		}
	}
}

func TestSimulateSameResourceOrdering(t *testing.T) {
	// Figure 6 shape: stages 1 and 5 share c-comp; stage 5 chunk 0 must
	// wait for stage 1 chunk m−1 (constraint 5, second case).
	w := DistributedDPWorkflow()
	tau := []float64{1, 1, 1, 1, 1}
	sched, err := Simulate(w, tau, 3)
	if err != nil {
		t.Fatal(err)
	}
	var endS0LastChunk, startS4Chunk0 float64
	for _, iv := range sched.Intervals {
		if iv.Stage == 0 && iv.Chunk == 2 {
			endS0LastChunk = iv.End
		}
		if iv.Stage == 4 && iv.Chunk == 0 {
			startS4Chunk0 = iv.Start
		}
	}
	if startS4Chunk0 < endS0LastChunk {
		t.Errorf("stage 5 started at %v before stage 1 finished all chunks at %v",
			startS4Chunk0, endS0LastChunk)
	}
}

func TestSimulateResourceExclusivity(t *testing.T) {
	// No two intervals on the same resource may overlap, for various m.
	w := DistributedDPWorkflow()
	f := func(m8 uint8, t1, t2, t3, t4, t5 uint8) bool {
		m := int(m8%12) + 1
		tau := []float64{float64(t1%9) + 0.5, float64(t2%9) + 0.5, float64(t3%9) + 0.5,
			float64(t4%9) + 0.5, float64(t5%9) + 0.5}
		sched, err := Simulate(w, tau, m)
		if err != nil {
			return false
		}
		byRes := map[Resource][]Interval{}
		for _, iv := range sched.Intervals {
			byRes[w[iv.Stage].Resource] = append(byRes[w[iv.Stage].Resource], iv)
		}
		for _, ivs := range byRes {
			for i := range ivs {
				for j := i + 1; j < len(ivs); j++ {
					a, b := ivs[i], ivs[j]
					if a.Start < b.End && b.Start < a.End {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimulateChunkStageOrder(t *testing.T) {
	// Each chunk's stage s cannot start before its stage s−1 ends.
	w := DistributedDPWorkflow()
	sched, err := Simulate(w, []float64{2, 3, 1, 3, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	end := map[[2]int]float64{}
	for _, iv := range sched.Intervals {
		end[[2]int{iv.Stage, iv.Chunk}] = iv.End
	}
	for _, iv := range sched.Intervals {
		if iv.Stage == 0 {
			continue
		}
		if iv.Start < end[[2]int{iv.Stage - 1, iv.Chunk}] {
			t.Fatalf("chunk %d stage %d starts before previous stage ends", iv.Chunk, iv.Stage)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	w := DistributedDPWorkflow()
	if _, err := Simulate(w, []float64{1, 1}, 2); err == nil {
		t.Error("tau length mismatch should error")
	}
	if _, err := Simulate(w, []float64{1, 1, 1, 1, 1}, 0); err == nil {
		t.Error("m=0 should error")
	}
	if _, err := Simulate(w, []float64{1, 1, -1, 1, 1}, 2); err == nil {
		t.Error("negative tau should error")
	}
}

// pipelineModel builds a model where stage work is dominated by β₁·d/m and
// the three resources carry comparable load — the regime of Figure 2, where
// aggregation (client crypto + transfers + server unmasking) is >90% of the
// round and pipelining overlaps the idle resources. The speedup ceiling is
// total-load / busiest-resource-load ≈ 2.8 here, bracketing the paper's
// observed 2.4×.
func pipelineModel() PerfModel {
	return PerfModel{Stages: []Betas{
		{8e-6, 0.01, 0.2},  // client encode+mask (c-comp)
		{7e-6, 0.02, 0.5},  // upload (comm)
		{11e-6, 0.01, 0.1}, // server unmask+aggregate (s-comp)
		{7e-6, 0.02, 0.5},  // dispatch (comm)
		{6e-6, 0.01, 0.1},  // decode (c-comp)
	}}
}

// speedup is plain time over pipelined time at the optimal chunk count.
func speedup(t *testing.T, w Workflow, pm PerfModel, d float64) (float64, int) {
	t.Helper()
	plain, err := PlainTime(w, pm, d)
	if err != nil {
		t.Fatal(err)
	}
	m, piped, err := OptimalChunks(w, pm, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plain / piped, m
}

func TestOptimalChunksSpeedsUp(t *testing.T) {
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	const d = 11e6 // ResNet-18 scale
	speedup, m := speedup(t, w, pm, d)
	if m < 2 {
		t.Errorf("optimal m = %d, expected pipelining to help", m)
	}
	if speedup < 1.5 {
		t.Errorf("speedup %v, want ≥ 1.5 in the comm-dominated regime", speedup)
	}
	// The paper's observed ceiling is ~2.5×; with two comm stages of equal
	// weight the structural bound is ~3×. Sanity-check we are in range.
	if speedup > 3.5 {
		t.Errorf("speedup %v implausibly high", speedup)
	}
}

func TestOptimalChunksInteriorOptimum(t *testing.T) {
	// With a strong intervention term the optimum must be interior
	// (1 < m < max) and better than both extremes.
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	for s := range pm.Stages {
		pm.Stages[s][1] = 0.5 // heavy per-chunk intervention
	}
	const d = 5e6
	m, best, err := OptimalChunks(w, pm, d, 20)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := Simulate(w, pm.StageTimes(d, 1), 1)
	s20, _ := Simulate(w, pm.StageTimes(d, 20), 20)
	if best > s1.Makespan || best > s20.Makespan {
		t.Errorf("optimal %v worse than an extreme (m=1: %v, m=20: %v)", best, s1.Makespan, s20.Makespan)
	}
	if m <= 1 || m >= 20 {
		t.Errorf("expected interior optimum, got m=%d", m)
	}
}

func TestLargerModelsBenefitMore(t *testing.T) {
	// §6.4 "Dordis Gains More Speedup with Larger Models".
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	sSmall, _ := speedup(t, w, pm, 1e6)
	sLarge, _ := speedup(t, w, pm, 20e6)
	if sLarge <= sSmall {
		t.Errorf("20M model speedup %v should exceed 1M model speedup %v", sLarge, sSmall)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan ≥ total load of the busiest resource (any valid schedule).
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	for _, m := range []int{1, 2, 5, 13} {
		tau := pm.StageTimes(2e6, m)
		sched, err := Simulate(w, tau, m)
		if err != nil {
			t.Fatal(err)
		}
		load := map[Resource]float64{}
		for s := range w {
			load[w[s].Resource] += tau[s] * float64(m)
		}
		for r, l := range load {
			if sched.Makespan < l-1e-9 {
				t.Errorf("m=%d: makespan %v below %v load %v", m, sched.Makespan, r, l)
			}
		}
	}
}

func TestExecutorRunsAllChunkStages(t *testing.T) {
	w := DistributedDPWorkflow()
	const m = 7
	var mu sync.Mutex
	seen := map[[2]int]int{}
	fns := make([]StageFunc, len(w))
	for s := range w {
		s := s
		fns[s] = func(chunk int) error {
			mu.Lock()
			seen[[2]int{s, chunk}]++
			mu.Unlock()
			return nil
		}
	}
	ex, err := NewExecutor(w, fns)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(m); err != nil {
		t.Fatal(err)
	}
	for s := range w {
		for c := 0; c < m; c++ {
			if seen[[2]int{s, c}] != 1 {
				t.Fatalf("stage %d chunk %d executed %d times", s, c, seen[[2]int{s, c}])
			}
		}
	}
}

func TestExecutorResourceExclusivity(t *testing.T) {
	w := DistributedDPWorkflow()
	var occupancy [int(numResources)]int32
	var violated atomic.Bool
	fns := make([]StageFunc, len(w))
	for s := range w {
		res := w[s].Resource
		fns[s] = func(chunk int) error {
			if atomic.AddInt32(&occupancy[res], 1) > 1 {
				violated.Store(true)
			}
			// Busy-wait a moment to give overlap a chance to manifest.
			for i := 0; i < 1000; i++ {
				_ = i
			}
			atomic.AddInt32(&occupancy[res], -1)
			return nil
		}
	}
	ex, err := NewExecutor(w, fns)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(8); err != nil {
		t.Fatal(err)
	}
	if violated.Load() {
		t.Fatal("two chunks occupied the same resource simultaneously")
	}
}

// TestExecutorPerStageChunkOrder is the ordering a stage that keeps state
// across chunks relies on (core's noise readers read the next chunk-length
// of a stream per call): whatever each call takes — random sleeps here —
// every stage sees chunks 0..m−1 strictly ascending and never two at once.
func TestExecutorPerStageChunkOrder(t *testing.T) {
	w := DistributedDPWorkflow()
	const m = 12
	for run := range 4 {
		rnd := rand.New(rand.NewPCG(uint64(run), 1))
		var mu sync.Mutex // guards rnd and order
		order := make([][]int, len(w))
		busy := make([]atomic.Int32, len(w))
		var overlapped atomic.Bool
		fns := make([]StageFunc, len(w))
		for s := range w {
			fns[s] = func(chunk int) error {
				if busy[s].Add(1) > 1 {
					overlapped.Store(true)
				}
				mu.Lock()
				order[s] = append(order[s], chunk)
				nap := time.Duration(rnd.IntN(300)) * time.Microsecond
				mu.Unlock()
				time.Sleep(nap)
				busy[s].Add(-1)
				return nil
			}
		}
		ex, err := NewExecutor(w, fns)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(m); err != nil {
			t.Fatal(err)
		}
		if overlapped.Load() {
			t.Fatalf("run %d: a stage ran two chunks at once", run)
		}
		for s, got := range order {
			for c := range m {
				if len(got) != m || got[c] != c {
					t.Fatalf("run %d: stage %d saw chunks %v, want 0..%d ascending", run, s, got, m-1)
				}
			}
		}
	}
}

func TestExecutorErrorPropagates(t *testing.T) {
	w := DistributedDPWorkflow()
	boom := errors.New("boom")
	fns := make([]StageFunc, len(w))
	for s := range w {
		s := s
		fns[s] = func(chunk int) error {
			if s == 2 && chunk == 1 {
				return boom
			}
			return nil
		}
	}
	ex, err := NewExecutor(w, fns)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(4); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestExecutorValidation(t *testing.T) {
	w := DistributedDPWorkflow()
	if _, err := NewExecutor(w, make([]StageFunc, 2)); err == nil {
		t.Error("func count mismatch should error")
	}
	fns := make([]StageFunc, len(w))
	if _, err := NewExecutor(w, fns); err == nil {
		t.Error("nil funcs should error")
	}
	for s := range fns {
		fns[s] = func(int) error { return nil }
	}
	ex, _ := NewExecutor(w, fns)
	if err := ex.Run(0); err == nil {
		t.Error("m=0 should error")
	}
}

// roundWorkflow is the three-stage workflow core.RunRound builds: one stage
// on each resource.
func roundWorkflow() Workflow {
	return Workflow{
		{Name: "client-encode-noise", Resource: ClientCompute},
		{Name: "secure-aggregation", Resource: Communication},
		{Name: "server-noise-removal", Resource: ServerCompute},
	}
}

// stageEvent is the start or the end of one chunk-stage.
type stageEvent struct {
	stage, chunk int
	end          bool
}

// TestExecutorFollowsSimulate checks that the executor runs the schedule
// Simulate models: whatever each call takes, every resource starts its
// chunk-stages in the order of Simulate's intervals on it, (s, c) starts
// only after (s−1, c) ends, and no two chunk-stages overlap on a resource.
func TestExecutorFollowsSimulate(t *testing.T) {
	for name, w := range map[string]Workflow{"distributed-dp": DistributedDPWorkflow(), "run-round": roundWorkflow()} {
		for _, m := range []int{1, 4, 12} {
			rnd := rand.New(rand.NewPCG(uint64(m), uint64(len(w))))
			tau := make([]float64, len(w))
			base := make([]time.Duration, len(w))
			for s := range w {
				base[s] = time.Duration(50+rnd.IntN(400)) * time.Microsecond
				tau[s] = base[s].Seconds()
			}
			var mu sync.Mutex // guards rnd and log
			var log []stageEvent
			fns := make([]StageFunc, len(w))
			for s := range w {
				fns[s] = func(chunk int) error {
					mu.Lock()
					log = append(log, stageEvent{s, chunk, false})
					nap := base[s] + time.Duration(rnd.IntN(100))*time.Microsecond
					mu.Unlock()
					time.Sleep(nap)
					mu.Lock()
					log = append(log, stageEvent{s, chunk, true})
					mu.Unlock()
					return nil
				}
			}
			ex, err := NewExecutor(w, fns)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(m); err != nil {
				t.Fatal(err)
			}
			sched, err := Simulate(w, tau, m)
			if err != nil {
				t.Fatal(err)
			}
			want := map[Resource][][2]int{}
			slices.SortStableFunc(sched.Intervals, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
			for _, iv := range sched.Intervals {
				r := w[iv.Stage].Resource
				want[r] = append(want[r], [2]int{iv.Stage, iv.Chunk})
			}
			got := map[Resource][][2]int{}
			ended := map[[2]int]bool{}
			var busy [numResources]bool
			for _, ev := range log {
				r := w[ev.stage].Resource
				if ev.end {
					busy[r] = false
					ended[[2]int{ev.stage, ev.chunk}] = true
					continue
				}
				got[r] = append(got[r], [2]int{ev.stage, ev.chunk})
				if busy[r] {
					t.Errorf("%s m=%d: (%d, %d) started while %v was busy", name, m, ev.stage, ev.chunk, r)
				}
				busy[r] = true
				if ev.stage > 0 && !ended[[2]int{ev.stage - 1, ev.chunk}] {
					t.Errorf("%s m=%d: (%d, %d) started before (%d, %d) ended", name, m, ev.stage, ev.chunk, ev.stage-1, ev.chunk)
				}
			}
			for r, order := range want {
				if !slices.Equal(got[r], order) {
					t.Errorf("%s m=%d: %v ran %v, Simulate orders %v", name, m, r, got[r], order)
				}
			}
		}
	}
}

// TestExecutorStopsAtFirstError fails one chunk-stage (s, c) per run and
// checks that neither a later chunk of stage s nor a later stage of chunk
// c starts, and that Run returns the failure.
func TestExecutorStopsAtFirstError(t *testing.T) {
	const m = 4
	for name, w := range map[string]Workflow{"distributed-dp": DistributedDPWorkflow(), "run-round": roundWorkflow()} {
		for run := range 100 {
			rnd := rand.New(rand.NewPCG(uint64(run), 2))
			failS, failC := rnd.IntN(len(w)), rnd.IntN(m)
			boom := errors.New("boom")
			var mu sync.Mutex // guards rnd and ran
			var ran [][2]int
			fns := make([]StageFunc, len(w))
			for s := range w {
				fns[s] = func(chunk int) error {
					mu.Lock()
					if s == failS && chunk > failC || s > failS && chunk == failC {
						ran = append(ran, [2]int{s, chunk})
					}
					nap := time.Duration(rnd.IntN(100)) * time.Microsecond
					mu.Unlock()
					time.Sleep(nap)
					if s == failS && chunk == failC {
						return boom
					}
					return nil
				}
			}
			ex, err := NewExecutor(w, fns)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(m); !errors.Is(err, boom) {
				t.Fatalf("%s run %d: want boom, got %v", name, run, err)
			}
			if len(ran) > 0 {
				t.Fatalf("%s run %d: (%d, %d) failed, yet %v started", name, run, failS, failC, ran)
			}
		}
	}
}

func BenchmarkSimulateM20(b *testing.B) {
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	tau := pm.StageTimes(11e6, 20)
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(w, tau, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalChunks(b *testing.B) {
	w := DistributedDPWorkflow()
	pm := pipelineModel()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalChunks(w, pm, 11e6, 20); err != nil {
			b.Fatal(err)
		}
	}
}
