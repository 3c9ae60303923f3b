// Command dordis-bench regenerates the paper's tables and figures
// (training-level experiments: privacy ledgers, round-time shares,
// ablations — see -list for the full inventory).
//
// Usage:
//
//	dordis-bench -list
//	dordis-bench -exp fig8
//	dordis-bench -exp table2 -scale paper
//	dordis-bench -exp all -scale quick
//
// It is the only runner of the experiments registry. Protocol-level
// measurements live in one other place, the round benchmark
// (go run -C bench . — four end-to-end workloads plus a per-layer ledger,
// host-tagged; see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (or 'all')")
		scale = flag.String("scale", "quick", "fidelity: quick | paper")
		list  = flag.Bool("list", false, "list experiment ids")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %-10s %s\n", id, experiments.Describe(id))
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (quick|paper)\n", *scale)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if err := experiments.Run(id, os.Stdout, sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
