package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"time"
)

// The parent process measures nothing itself. It re-executes this binary
// once per pass, so every pass starts from a fresh heap, fresh goroutine
// pools and cold caches, and interleaves the workloads' passes
// (A B C D A B C D …) so that slow drift of the host lands on all four
// alike. Around every pass it times the host-noise canary.

const (
	untracedPasses = 3
	warmupRounds   = 3
	// canaryLimit marks a pass as disturbed when a canary next to it ran
	// this much slower than the run's median canary. The median and not the
	// best: this VM's SHA throughput sits in one of two states 28 % apart
	// for minutes at a time with brief visits to the other, and a reference
	// taken from one brief visit would call every other pass disturbed.
	canaryLimit = 1.10
	// maxReruns bounds the extra passes a run spends on disturbed ones.
	maxReruns = 2
	// childGrace is what a child may take beyond its measuring time
	// (set-up, warm-ups, a failed round's stage deadlines) before the
	// parent kills it.
	childGrace = 100 * time.Second
)

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	traceOut string
	// smoke test only: passes of a fixed number of rounds at reduced
	// dimensions, run in-process
	rounds int
	small  bool
}

type childConfig struct {
	passConfig
	Layers bool `json:"layers"` // run the stepped drivers and kernels instead of a pass
}

// pass is one child invocation and what the parent knows about it.
type pass struct {
	spec   workloadSpec
	cfg    childConfig
	canary float64 // the slower of the canaries before and after
	rerun  bool    // this result replaced a disturbed pass's
	res    *passResult
	layers map[string]float64
	err    error
}

func benchMain(rc runConfig) int {
	specs := workloads
	if rc.workload != "" {
		spec, ok := findWorkload(rc.workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", rc.workload)
			return 2
		}
		specs = []workloadSpec{spec}
	}
	rep, err := runBenchmark(rc, specs, spawnChild)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(doc))
	if rc.workload != "" {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(contractLine(rep.Workloads[0], rc.traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	for _, w := range rep.Workloads {
		if w.passErrors > 0 {
			return 1 // a pass that never measured is not a result
		}
	}
	return 0
}

// runner executes one child configuration; the smoke test substitutes an
// in-process one.
type runner func(cfg childConfig, budget time.Duration) (*passResult, map[string]float64, error)

func runBenchmark(rc runConfig, specs []workloadSpec, run runner) (*report, error) {
	if rc.seconds <= 0 && rc.rounds <= 0 {
		return nil, fmt.Errorf("nothing to measure: -seconds is 0")
	}
	host := readHostInfo()
	cpu0, haveCPU := readCPUTimes()

	// A traced run spends a quarter of its time each on two untraced
	// passes, the traced pass, and the stepped drivers and kernels, so
	// that it costs what an untraced run costs.
	nUntraced, share := untracedPasses, 1.0/untracedPasses
	if rc.traced {
		nUntraced, share = 2, 0.25
	}
	mk := func(spec workloadSpec, traced, layers bool) *pass {
		cfg := childConfig{Layers: layers, passConfig: passConfig{
			Workload: spec.name, Seed: rc.seed, Seconds: rc.seconds * share, Rounds: rc.rounds,
			Warmup: warmupRounds, Small: rc.small, Traced: traced}}
		if traced && rc.traceOut != "" {
			cfg.TraceOut = rc.traceOut + "." + spec.name + ".jsonl"
		}
		return &pass{spec: spec, cfg: cfg}
	}
	var passes []*pass
	for p := 0; p < nUntraced; p++ {
		for _, spec := range specs {
			passes = append(passes, mk(spec, false, false))
		}
	}
	if rc.traced {
		for _, spec := range specs {
			passes = append(passes, mk(spec, true, false), mk(spec, false, true))
		}
	}

	budget := time.Duration(rc.seconds*share*float64(time.Second)) + childGrace
	execute := func(p *pass) {
		p.res, p.layers, p.err = run(p.cfg, budget)
	}
	calib := canary()
	readings := []float64{calib}
	prev := calib
	for _, p := range passes {
		execute(p)
		after := canary()
		p.canary = max(prev, after)
		readings = append(readings, after)
		prev = after
	}

	// Pass discipline: a pass bracketed by a canary more than canaryLimit×
	// the run's median ran on a disturbed host; the worst are run again.
	limit := canaryLimit * median(readings)
	var disturbed []*pass
	for _, p := range passes {
		if !p.cfg.Layers && p.canary > limit {
			disturbed = append(disturbed, p)
		}
	}
	sort.Slice(disturbed, func(i, j int) bool { return disturbed[i].canary > disturbed[j].canary })
	for i, p := range disturbed {
		if i >= maxReruns {
			break
		}
		old := *p
		before := canary()
		execute(p)
		if p.err != nil && old.err == nil {
			*p = old // a failed re-run does not cost the pass it had
			continue
		}
		p.canary, p.rerun = max(before, canary()), true
	}

	rep := &report{Schema: reportSchema, Host: host, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced}
	hostRows := map[string]float64{
		"host.calib_s":          calib,
		"host.disturbed_passes": float64(len(disturbed)),
	}
	if cpu1, ok := readCPUTimes(); ok && haveCPU {
		hostRows["host.steal_pct"] = stealPct(cpu0, cpu1)
	}
	for _, spec := range specs {
		var mine []*pass
		for _, p := range passes {
			if p.spec.name == spec.name {
				mine = append(mine, p)
			}
		}
		rep.Workloads = append(rep.Workloads, summarize(spec, mine, rc.traced, hostRows))
	}
	return rep, nil
}

// spawnChild re-executes this binary for one pass.
func spawnChild(cfg childConfig, budget time.Duration) (*passResult, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cfg.SpawnedAt = time.Now().UnixNano()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s pass: %w", cfg.Workload, err)
	}
	if cfg.Layers {
		var layers map[string]float64
		if err := json.Unmarshal(stdout.Bytes(), &layers); err != nil {
			return nil, nil, fmt.Errorf("%s layers: bad child output: %w", cfg.Workload, err)
		}
		return nil, layers, nil
	}
	var res passResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, nil, fmt.Errorf("%s pass: bad child output: %w", cfg.Workload, err)
	}
	return &res, nil, nil
}
