package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/rng"
)

// A workload is one fixed round shape driven closed-loop, one round at a
// time, with every client and server a goroutine of this process. Every
// knob that has a default in the program (NoiseEpoch, SecAgg+ degree,
// worker counts, unmask quorum) is left at that default, so a later
// change of default shows up in the numbers.
type workload interface {
	// prepare does what round i needs done before it starts and the
	// benchmark does not time (the bounce that makes a round a partial
	// resume).
	prepare(i int) error
	// run executes round i (1-based, strictly increasing over the life of
	// the workload) from its first frame to the moment every surviving
	// party holds the verified result. It is the timed region.
	run(i int) error
	// check compares the round run last against the plaintext oracle.
	// It is outside the timed region.
	check() (roundCheck, error)
	// info describes the shape for throughput and share arithmetic.
	info() workloadInfo
	// close releases the workload and reports anything the oracle could
	// only settle at the end.
	close() error
}

// roundCheck carries what the oracle measured besides pass/fail.
type roundCheck struct {
	// noiseVarRatio is measured residual variance ÷ the variance the
	// XNoise plan promises for the round's dropout count; 0 on rounds
	// without noise.
	noiseVarRatio float64
}

type workloadInfo struct {
	clients   int // sampled clients per round
	survivors int // clients whose update is in the aggregate
	dim       int // coordinates aggregated per round
}

// workloadSpec names a workload and says why it exists; the README and
// BENCHMARK.json carry the same sentences.
type workloadSpec struct {
	name string
	why  string
	// wire workloads move frames through internal/transport and are the
	// only ones the taps can see.
	wire bool
	open func(seed uint64, small bool, tr *tracer) (workload, error)
}

var workloads = []workloadSpec{
	{name: "flat_cold", wire: false, open: openFlatCold,
		why: "first-time cohort, in-process SecAgg+ with XNoise and 8 dropouts: dh, shamir, noise sampling, skellam and the chunk pipeline do the work; transport and codecs do none"},
	{name: "flat_session_tcp", wire: true, open: openSessionTCP,
		why: "continuing service over loopback TCP, resumed sessions, 512 KiB masked frames: mask expansion, wire codec, TCP and engine decode dominate; dh, noise and the pipeline do ~nothing"},
	{name: "sharded_mem", wire: true, open: openShardedMem,
		why: "two-level topology, 4 shards x 16 clients, cold keys, in-protocol XNoise, transcripts on both tiers: hundreds of small frames, so control codecs, Merkle/sig and per-frame engine cost dominate"},
	{name: "lsa_dropout", wire: false, open: openLSADropout,
		why: "same engine, session pool and pipeline on the LightSecAgg substrate with 4 dropouts: share encoding, field arithmetic and AEAD envelopes dominate; shamir and pairwise masks do nothing"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// clientIDs returns 1..n.
func clientIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

// everyKth returns every k-th id. Drop schedules are part of a workload's
// shape, not of its seeded input: on a SecAgg+ graph the number of key
// agreements the server spends on reconstruction depends on which
// clients drop, and the ledger wants that count identical under every
// seed.
func everyKth(ids []uint64, k int) []uint64 {
	var out []uint64
	for i := k - 1; i < len(ids); i += k {
		out = append(out, ids[i])
	}
	return out
}

func seedBytes(seed uint64, label string) prg.Seed {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	return prg.NewSeed([]byte("dordis-roundbench"), b[:], []byte(label))
}

// roundSeed is the RoundConfig.Seed of round i under the run's seed.
func roundSeed(seed uint64, i int) prg.Seed {
	return seedBytes(seed, fmt.Sprintf("round/%d", i))
}

// modelUpdates draws one Gaussian update per client with L2 norm just
// inside the clip bound, so the codec never clips and the oracle can
// predict the rounding variance from the inputs alone.
func modelUpdates(seed uint64, ids []uint64, dim int, norm float64) map[uint64][]float64 {
	s := prg.NewStream(seedBytes(seed, "updates"))
	out := make(map[uint64][]float64, len(ids))
	for _, id := range ids {
		x := make([]float64, dim)
		rng.GaussianVector(s, 1, x)
		var n2 float64
		for _, v := range x {
			n2 += v * v
		}
		f := norm / math.Sqrt(n2)
		for j := range x {
			x[j] *= f
		}
		out[id] = x
	}
	return out
}

// ringInputs draws one uniform ring vector per client.
func ringInputs(seed uint64, ids []uint64, bits uint, dim int) map[uint64]ring.Vector {
	s := prg.NewStream(seedBytes(seed, "ring-inputs"))
	out := make(map[uint64]ring.Vector, len(ids))
	for _, id := range ids {
		v := ring.NewVector(bits, dim)
		s.FillUint64Masked(v.Data, v.Mask())
		out[id] = v
	}
	return out
}

// ringSum is the plaintext oracle for ring rounds: Σ inputs mod 2^bits
// over the given ids.
func ringSum(inputs map[uint64]ring.Vector, ids []uint64, bits uint, dim int) ring.Vector {
	sum := ring.NewVector(bits, dim)
	mask := sum.Mask()
	for _, id := range ids {
		for j, w := range inputs[id].Data {
			sum.Data[j] = (sum.Data[j] + w) & mask
		}
	}
	return sum
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parties runs the goroutines of one wire round — every client, every
// server — and cancels them all at the first error, so a party blocked on
// a frame that will never come does not hold the round until a deadline.
type parties struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

func newParties(parent context.Context) *parties {
	p := &parties{}
	p.ctx, p.cancel = context.WithCancel(parent)
	return p
}

func (p *parties) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
		p.cancel()
	}
	p.mu.Unlock()
}

// spawn runs one party on its own goroutine.
func (p *parties) spawn(fn func(ctx context.Context) error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.do(fn)
	}()
}

// do runs one party on the calling goroutine.
func (p *parties) do(fn func(ctx context.Context) error) {
	if err := fn(p.ctx); err != nil {
		p.fail(err)
	}
}

// wait returns once every spawned party has, with the first error.
func (p *parties) wait() error {
	p.wg.Wait()
	p.cancel()
	return p.err
}

// dropSplit applies a workload's drop rule: every k-th client vanishes
// before its masked upload, the rest survive.
func dropSplit(ids []uint64, k int) (dropped, survivors []uint64) {
	dropped = everyKth(ids, k)
	gone := make(map[uint64]bool, len(dropped))
	for _, id := range dropped {
		gone[id] = true
	}
	for _, id := range ids {
		if !gone[id] {
			survivors = append(survivors, id)
		}
	}
	return dropped, survivors
}
