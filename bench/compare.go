package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// -compare a.json b.json reads two reports of this benchmark — a the
// baseline, b the candidate — and prints, for every end-to-end metric of
// every workload, how much worse b is than a as a share of a, against the
// metric's bound. It exits 1 when any metric is worse by more than its
// bound or the two reports do not have the same shape, 0 otherwise. It is
// what "two runs of one commit agree" and "no regression" are checked
// with.

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, this binary reads %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// worsening is how much worse cand is than base as a share of base;
// negative when it is better.
func worsening(base, cand float64, better string) float64 {
	if base == cand {
		return 0
	}
	if base == 0 {
		// From nothing to something has no relative size; treat it as
		// beyond any bound in the bad direction.
		if (cand > 0) == (better == lower) {
			return 1e9
		}
		return -1e9
	}
	d := (cand - base) / base
	if better == higher {
		d = -d
	}
	return d
}

func compareMain(basePath, candPath string) int {
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cand, err := loadReport(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	breaches, err := compareReports(os.Stdout, base, cand)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: schema mismatch:", err)
		return 1
	}
	if breaches > 0 {
		fmt.Printf("%d metric(s) worse than their bound\n", breaches)
		return 1
	}
	fmt.Println("every end-to-end metric within its bound")
	return 0
}

// compareReports prints the comparison and returns the number of breaches;
// the error reports a difference of shape.
func compareReports(out io.Writer, base, cand *report) (int, error) {
	if len(base.Workloads) != len(cand.Workloads) {
		return 0, fmt.Errorf("%d workloads against %d", len(base.Workloads), len(cand.Workloads))
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tworse by\tbound\t")
	breaches := 0
	for i, bw := range base.Workloads {
		cw := cand.Workloads[i]
		if bw.Name != cw.Name {
			return 0, fmt.Errorf("workload %q against %q", bw.Name, cw.Name)
		}
		if len(bw.EndToEnd) != len(cw.EndToEnd) || len(bw.PerLayer) != len(cw.PerLayer) {
			return 0, fmt.Errorf("%s: %d+%d metrics against %d+%d", bw.Name,
				len(bw.EndToEnd), len(bw.PerLayer), len(cw.EndToEnd), len(cw.PerLayer))
		}
		for j, bm := range bw.PerLayer {
			if cm := cw.PerLayer[j]; bm.Name != cm.Name || bm.Unit != cm.Unit || bm.Better != cm.Better {
				return 0, fmt.Errorf("%s: per-layer metric %s [%s, %s] against %s [%s, %s]", bw.Name,
					bm.Name, bm.Unit, bm.Better, cm.Name, cm.Unit, cm.Better)
			}
		}
		for j, bm := range bw.EndToEnd {
			cm := cw.EndToEnd[j]
			if bm.Name != cm.Name || bm.Unit != cm.Unit || bm.Better != cm.Better ||
				bm.Bound == nil || cm.Bound == nil || *bm.Bound != *cm.Bound {
				return 0, fmt.Errorf("%s: end-to-end metric %s differs in name, unit, direction or bound", bw.Name, bm.Name)
			}
			w := worsening(bm.Value, cm.Value, bm.Better)
			verdict := ""
			if w > *bm.Bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.8g %s\t%.8g %s\t%+.2f%%\t%.0f%%\t%s\n", bw.Name, bm.Name,
				bm.Value, bm.Unit, cm.Value, cm.Unit, 100*w, 100**bm.Bound, verdict)
		}
	}
	return breaches, tw.Flush()
}
