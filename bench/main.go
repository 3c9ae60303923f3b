// Command bench is the round benchmark of the Dordis reproduction: four
// fixed workloads, each a different way through the same aggregation
// stack, measured end to end and — in a separate traced run — layer by
// layer, from outside, at the exported functions of internal/*.
//
//	go run -C bench . [-workload name] [-seed n] [-seconds s] [-trace 1]
//	go run -C bench . -compare a.json b.json
//
// README.md in this directory describes the workloads, the metrics and
// what each per-layer row should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's one-line result (default: all four, interleaved)")
		seed         = flag.Uint64("seed", 1, "seed of every generated input and of RoundConfig.Seed; protocol randomness stays crypto/rand, as deployed")
		seconds      = flag.Float64("seconds", 20, "seconds of measured rounds per workload, split over the passes")
		trace        = flag.Int("trace", 0, "1 adds the traced pass, the stepped drivers and the kernels, and reports the per-layer ledger")
		traceOut     = flag.String("trace-out", "", "with -trace 1, write the spans of the traced pass here, one JSON object per line (one file per workload: the name is appended)")
		compare      = flag.Bool("compare", false, "compare two reports given as arguments against the bounds; exit 1 on a breach or a schema mismatch")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		child        = flag.String("child", "", "internal: run one pass described by this JSON and print its result")
	)
	flag.Parse()

	switch {
	case *child != "":
		os.Exit(childMain(*child))
	case *manifest:
		doc, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two report files"))
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1)))
	default:
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace is 0 or 1"))
		}
		if flag.NArg() != 0 {
			fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
		}
		os.Exit(benchMain(runConfig{workload: *workloadName, seed: *seed, seconds: *seconds,
			traced: *trace == 1, traceOut: *traceOut}))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// childMain runs the pass (or the layer measurements) a parent asked for.
func childMain(arg string) int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(arg), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench child: bad config:", err)
		return 2
	}
	var res any
	var err error
	if cfg.Layers {
		res, err = runLayers(cfg.passConfig)
	} else {
		res, err = runPass(cfg.passConfig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}
