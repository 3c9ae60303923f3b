package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hotpath"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/xnoise"
)

// runHotpath runs the GOMAXPROCS × workload matrix over the protocol
// hot paths (internal/hotpath): Skellam sampling under every noise
// epoch, seekable-CTR segmented mask expansion, and the whole
// amortized XNoise round at the default epoch. It is the CLI twin of the
// root bench matrix (go test -bench MulticoreMatrix .) for machines where
// running the full test binary is inconvenient. Results are ns/op from
// testing.Benchmark, which auto-scales iteration counts.
func runHotpath(coresSpec string) error {
	procsList, err := parseCores(coresSpec)
	if err != nil {
		return err
	}
	const (
		skellamDim = 4096
		skellamMu  = 16
		maskDim    = 1 << 16
		roundN     = 16
		roundDim   = 16384
	)
	fmt.Printf("hot-path matrix (host cores: %d)\n", runtime.NumCPU())
	fmt.Printf("%-36s %6s %14s %12s\n", "workload", "procs", "ns/op", "ns/elem")
	for _, procs := range procsList {
		prev := runtime.GOMAXPROCS(procs)
		type row struct {
			name  string
			elems int
			fn    func(b *testing.B)
		}
		rows := []row{}
		for epoch := uint64(0); epoch <= xnoise.MaxNoiseEpoch; epoch++ {
			epoch := epoch
			rows = append(rows, row{
				name:  fmt.Sprintf("skellam/mu=%d/epoch=%d", skellamMu, epoch),
				elems: skellamDim,
				fn: func(b *testing.B) {
					s := prg.NewStream(prg.NewSeed([]byte("hotpath-skellam")))
					out := make([]int64, skellamDim)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := hotpath.Skellam(epoch, s, skellamMu, out); err != nil {
							b.Fatal(err)
						}
					}
				},
			})
		}
		workers := procs
		rows = append(rows, row{
			name:  fmt.Sprintf("maskexpand/dim=%d", maskDim),
			elems: maskDim,
			fn: func(b *testing.B) {
				v := ring.NewVector(20, maskDim)
				s := prg.NewStream(prg.NewSeed([]byte("hotpath-mask")))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := hotpath.MaskExpand(v, s, workers); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
		rows = append(rows, row{
			name: fmt.Sprintf("round/n=%d/dim=%d/epoch=0", roundN, roundDim),
			fn: func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := hotpath.Round(roundN, roundDim, 0); err != nil {
						b.Fatal(err)
					}
				}
			},
		})
		for _, r := range rows {
			res := testing.Benchmark(r.fn)
			nsOp := float64(res.T.Nanoseconds()) / float64(res.N)
			perElem := "-"
			if r.elems > 0 {
				perElem = fmt.Sprintf("%.2f", nsOp/float64(r.elems))
			}
			fmt.Printf("%-36s %6d %14.0f %12s\n", r.name, procs, nsOp, perElem)
		}
		runtime.GOMAXPROCS(prev)
	}
	return nil
}

// parseCores parses a comma-separated GOMAXPROCS list like "1,2,4".
func parseCores(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cores entry %q (want positive integers, e.g. 1,2,4)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-cores is empty")
	}
	return out, nil
}
