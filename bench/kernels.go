package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/aead"
	"repro/internal/combine"
	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/pipeline"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/shamir"
	"repro/internal/sig"
	"repro/internal/skellam"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Kernels are direct timed calls of the leaf packages with arguments
// shaped like the workload's. They give each layer a cost in isolation:
// multiplied by how often a round calls it (the dh rows carry the exact
// count) and divided by cpu_s_p10, a kernel's time is its share of the
// round. A kernel of a layer the workload's round never enters is not
// run, and its row stays 0, like the stepped and wire rows of a layer
// the workload bypasses.

// kernelShape is what the kernels need to know about a workload.
type kernelShape struct {
	n         int // clients of one aggregation (a shard's 16 on sharded_mem)
	perRound  int // clients of one round (all four shards' 64 on sharded_mem)
	threshold int // Shamir threshold of that aggregation
	shareN    int // parties one secret is shared among (the neighbourhood on SecAgg+)
	dim       int // coordinates of one masked vector
	chunkDim  int // coordinates of one pipeline chunk
	tolerance int // XNoise tolerance
	dropped   int // clients dropped before the masked upload
	noiseVar  float64

	// the leaf layers the workload's round goes through, besides dh,
	// aead, prg, field and engine, which all four use
	pairwise bool // SecAgg substrate: shamir, ring masks and sums
	skellam  bool // DSkellam codec (core.RunRound)
	xnoise   bool // XNoise components and the rng samplers under them
	sig      bool // signed handshake or transcripts
	twoTier  bool // transcript and combine
	pipeline bool // chunk pipeline (core.RunRound)
	tcp, mem bool // the transport under a wire workload
}

func kernelShapeOf(workload string, small bool) (kernelShape, error) {
	switch workload {
	case "flat_cold":
		s := flatColdShape(small)
		// ProtocolAuto resolves to SecAgg+ here: secrets are shared within
		// a neighbourhood, at the threshold secaggplus derives for it.
		plus, err := secaggplus.NewConfig(secagg.Config{ClientIDs: clientIDs(s.n),
			Threshold: s.threshold, Bits: 20, Dim: s.dim}, 0)
		if err != nil {
			return kernelShape{}, err
		}
		return kernelShape{n: s.n, perRound: s.n, threshold: plus.Threshold, shareN: secaggplus.RecommendedDegree(s.n) + 1,
			dim: s.dim, chunkDim: s.dim / s.chunks,
			tolerance: s.tolerance, dropped: s.n / s.dropEvery, noiseVar: targetMu,
			pairwise: true, skellam: true, xnoise: true, pipeline: true}, nil
	case "lsa_dropout":
		s := lsaDropoutShape(small)
		return kernelShape{n: s.n, perRound: s.n, threshold: s.threshold, shareN: s.n, dim: s.dim, chunkDim: s.dim / s.chunks,
			tolerance: s.tolerance, dropped: s.n / s.dropEvery, noiseVar: targetMu,
			skellam: true, xnoise: true, pipeline: true}, nil
	case "flat_session_tcp":
		c := sessionTCPConfig(small)
		return kernelShape{n: len(c.ClientIDs), perRound: len(c.ClientIDs), threshold: c.Threshold, shareN: len(c.ClientIDs),
			dim: c.Dim, chunkDim: c.Dim, pairwise: true, sig: true, tcp: true}, nil
	case "sharded_mem":
		_, _, cfgs, err := shardedConfigs(small)
		if err != nil {
			return kernelShape{}, err
		}
		c := cfgs[0]
		return kernelShape{n: len(c.ClientIDs), perRound: len(cfgs) * len(c.ClientIDs), threshold: c.Threshold,
			shareN: len(c.ClientIDs), dim: c.Dim, chunkDim: c.Dim, tolerance: c.XNoise.DropoutTolerance,
			noiseVar: c.XNoise.TargetVariance,
			pairwise: true, xnoise: true, sig: true, twoTier: true, mem: true}, nil
	}
	return kernelShape{}, fmt.Errorf("no kernel shape for workload %q", workload)
}

// kernelBudget is how long one batch of one kernel runs; three batches
// are taken and the fastest mean is reported. The smoke test runs the
// kernels for their rows, not their values, and spends a tenth of it.
const (
	kernelBudget      = 25 * time.Millisecond
	kernelBudgetSmall = kernelBudget / 10
)

// perCallWithin returns seconds per call of fn.
func perCallWithin(budget time.Duration, fn func()) float64 {
	fn() // warm caches and lazy tables
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < budget {
			fn()
			calls++
		}
		if d := time.Since(t0).Seconds() / float64(calls); rep == 0 || d < best {
			best = d
		}
	}
	return best
}

var kernelSink uint64 // keeps the compiler from dropping pure kernels

func must(err error) {
	if err != nil {
		panic(err) // kernels run fixed, valid arguments: an error is a bug here
	}
}

// runKernels times the leaf kernels of the layers the shape names.
func runKernels(seed uint64, ks kernelShape, budget time.Duration) (out map[string]float64, err error) {
	perCall := func(fn func()) float64 { return perCallWithin(budget, fn) }
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel: %v", r)
		}
	}()
	out = make(map[string]float64)
	stream := prg.NewStream(seedBytes(seed, "kernels"))

	// dh
	a, err := dh.Generate(rand.Reader)
	must(err)
	b, err := dh.Generate(rand.Reader)
	must(err)
	pub := b.PublicBytes()
	out["dh.generate_us"] = 1e6 * perCall(func() { _, err := dh.Generate(rand.Reader); must(err) })
	out["dh.agree_us"] = 1e6 * perCall(func() { _, err := a.Agree(pub); must(err) })

	// aead
	var key [aead.KeySize]byte
	stream.Fill(key[:])
	pt := make([]byte, 1024)
	out["aead.seal_us_1k"] = 1e6 * perCall(func() {
		_, err := aead.Seal(key, rand.Reader, pt, []byte("ad"))
		must(err)
	})

	// prg, field
	mask := prg.NewStream(seedBytes(seed, "mask"))
	buf := make([]byte, 1<<20)
	out["prg.fill_gb_per_s"] = float64(len(buf)) / perCall(func() { mask.Fill(buf) }) / 1e9
	const mulChain = 4096
	x, y := field.New(0x1234567), field.New(0x7654321)
	out["field.mul_ns"] = 1e9 * perCall(func() {
		for i := 0; i < mulChain; i++ {
			x = field.Mul(x, y) // dependent chain: latency, not throughput
		}
		kernelSink += x.Uint64()
	}) / mulChain

	if ks.pairwise {
		pairwiseKernels(out, ks, stream, mask, perCall)
	}
	if ks.skellam {
		// skellam codec at the workload's dimension
		codec, err := benchCodec(seed, ks.dim, ks.n, ks.noiseVar)
		must(err)
		update := modelUpdates(seed, []uint64{1}, ks.dim, 0.9*codec.Clip)[1]
		enc, err := skellam.Encode(codec, update, stream.Fork("enc"))
		must(err)
		out["skellam.encode_s_per_client"] = perCall(func() {
			_, err := skellam.Encode(codec, update, stream.Fork("enc"))
			must(err)
		})
		out["skellam.decode_s"] = perCall(func() { _, err := skellam.Decode(codec, enc); must(err) })
	}
	if ks.xnoise {
		noiseKernels(out, ks, stream, perCall)
	}
	if ks.sig {
		signer, err := sig.NewSigner(rand.Reader)
		must(err)
		msg := make([]byte, 64)
		signature := signer.Sign(msg)
		out["sig.sign_us"] = 1e6 * perCall(func() { signer.Sign(msg) })
		out["sig.verify_us"] = 1e6 * perCall(func() {
			if !sig.Verify(signer.Public(), msg, signature) {
				panic("signature rejected")
			}
		})
	}
	if ks.twoTier {
		twoTierKernels(out, ks, stream, perCall)
	}
	if ks.pipeline {
		// the executor's own cost per chunk, on the three-stage workflow
		// core.RunRound builds, with stages that do nothing
		noop := func(int) error { return nil }
		ex, err := pipeline.NewExecutor(pipeline.Workflow{
			{Name: "client", Resource: pipeline.ClientCompute},
			{Name: "protocol", Resource: pipeline.Communication},
			{Name: "server", Resource: pipeline.ServerCompute},
		}, []pipeline.StageFunc{noop, noop, noop})
		must(err)
		const pipeChunks = 64
		out["pipeline.overhead_us_per_chunk"] = 1e6 * perCall(func() { must(ex.Run(pipeChunks)) }) / pipeChunks
	}

	// engine: Collect over a synthetic source, nothing to decode or apply
	const frames = 64
	expect := clientIDs(frames)
	msgs := make(chan engine.Msg, frames)
	eng := engine.New(func(ctx context.Context) (engine.Msg, error) {
		select {
		case m := <-msgs:
			return m, nil
		case <-ctx.Done():
			return engine.Msg{}, ctx.Err()
		}
	})
	out["engine.collect_us_per_frame"] = 1e6 * perCall(func() {
		for _, id := range expect {
			msgs <- engine.Msg{From: id, Stage: 1}
		}
		_, err := eng.Collect(context.Background(), engine.Stage{Name: "bench", Tag: 1, Expect: expect,
			Decode: func(m engine.Msg) (any, error) { return m.Body, nil },
			Apply:  func(uint64, any) error { return nil }})
		must(err)
	}) / frames

	if ks.mem {
		memKernel(out, perCall)
	}
	if ks.tcp {
		tcpKernels(out, ks.n, perCall)
	}
	return out, nil
}

type perCallFunc func(func()) float64

// pairwiseKernels: what the SecAgg substrate adds — shamir at the
// workload's (t, n), and ring masking and summing at its vector length.
func pairwiseKernels(out map[string]float64, ks kernelShape, stream, mask *prg.Stream, perCall perCallFunc) {
	xs := make([]field.Element, ks.shareN)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	out["shamir.split_us"] = 1e6 * perCall(func() {
		_, err := shamir.Split(field.New(12345), ks.threshold, xs, rand.Reader)
		must(err)
	})
	// a dropout reconstructs the four chunks of one mask key from one
	// cohort, so the batch is 4 secrets
	sets := make([][]shamir.Share, 4)
	for k := range sets {
		var err error
		sets[k], err = shamir.Split(field.New(uint64(1000+k)), ks.threshold, xs, rand.Reader)
		must(err)
	}
	out["shamir.reconstruct_batch_us"] = 1e6 * perCall(func() {
		_, err := shamir.ReconstructBatch(sets, ks.threshold)
		must(err)
	})

	v := ring.NewVector(20, ks.dim)
	o := ring.NewVector(20, ks.dim)
	stream.FillUint64Masked(o.Data, o.Mask())
	out["ring.mask_ns_per_elem"] = 1e9 * perCall(func() { must(v.MaskInPlace(mask, 1)) }) / float64(ks.dim)
	out["ring.add_ns_per_elem"] = 1e9 * perCall(func() { must(v.AddInPlace(o)) }) / float64(ks.dim)
}

// noiseKernels: XNoise at one chunk of the workload's own plan, and the
// two noise epochs' samplers.
func noiseKernels(out map[string]float64, ks kernelShape, stream *prg.Stream, perCall perCallFunc) {
	plan := xnoise.Plan{NumClients: ks.n, DropoutTolerance: ks.tolerance,
		Threshold: min(ks.threshold, ks.n-ks.tolerance), TargetVariance: ks.noiseVar}
	must(plan.Validate())
	sampler := xnoise.SamplerForEpoch(0) // the default epoch, as the workloads run it
	out["xnoise.total_noise_s_per_client_chunk"] = perCall(func() {
		cn, err := xnoise.NewClientNoise(plan, stream.Fork("cn"))
		must(err)
		_, err = cn.TotalNoise(plan, sampler, ks.chunkDim)
		must(err)
	})
	seeds := make(map[uint64]map[int]field.Element)
	for i := 0; i < ks.n-ks.dropped; i++ {
		cn, err := xnoise.NewClientNoise(plan, stream.Fork(fmt.Sprintf("rm%d", i)))
		must(err)
		byK := make(map[int]field.Element)
		for _, k := range plan.RemovalComponents(ks.dropped) {
			byK[k] = cn.Seeds[k]
		}
		seeds[uint64(i+1)] = byK
	}
	out["xnoise.removal_s_per_chunk"] = perCall(func() {
		_, err := xnoise.RemovalNoise(plan, sampler, seeds, ks.dropped, ks.chunkDim)
		must(err)
	})
	cv, err := plan.ComponentVariance(0)
	must(err)
	samples := make([]int64, 1<<14)
	for epoch := uint64(0); epoch <= xnoise.MaxNoiseEpoch && epoch < 2; epoch++ {
		s := xnoise.SamplerForEpoch(epoch)
		out[fmt.Sprintf("rng.skellam_ns_per_sample.epoch%d", epoch)] =
			1e9 * perCall(func() { s(stream, cv, samples) }) / float64(len(samples))
	}
}

// twoTierKernels: a shard's transcript over its own roster, and the
// combiner's fold and partial codec at the shard's dimension.
func twoTierKernels(out map[string]float64, ks kernelShape, stream *prg.Stream, perCall perCallFunc) {
	signer, err := sig.NewSigner(rand.Reader)
	must(err)
	kp, err := dh.Generate(rand.Reader)
	must(err)
	roster := make([]transcript.RosterEntry, ks.n)
	digests := make([]transcript.InputDigest, ks.n)
	for i := range roster {
		roster[i] = transcript.RosterEntry{ID: uint64(i + 1), CipherPub: kp.PublicBytes(), MaskPub: kp.PublicBytes()}
		digests[i] = transcript.InputDigest{ID: uint64(i + 1), Digest: transcript.Digest([]uint64{uint64(i)})}
	}
	out["transcript.build_round_us"] = 1e6 * perCall(func() {
		// a fresh recorder per call: the chain would otherwise want
		// strictly increasing rounds
		_, err := transcript.NewRecorder(signer).BuildRound(1, roster, digests)
		must(err)
	})
	tr, err := transcript.NewRecorder(signer).BuildRound(1, roster, digests)
	must(err)
	proof, err := tr.ProofFor(roster[3].ID)
	must(err)
	out["transcript.verify_round_us"] = 1e6 * perCall(func() {
		must(transcript.Verify(&tr.Commitment, proof, roster[3], digests[3].Digest, signer.Public()))
	})

	shards := ks.perRound / ks.n
	shardIDs := make([]uint64, shards)
	partials := make([]combine.Partial, shards)
	for s := range partials {
		shardIDs[s] = uint64(s)
		sum := ring.NewVector(20, ks.dim)
		stream.FillUint64Masked(sum.Data, sum.Mask())
		partials[s] = combine.Partial{Shard: uint64(s), Round: 1, Sum: sum,
			Survivors: clientIDs(ks.n), HasTranscript: true}
	}
	out["combine.fold_s"] = perCall(func() {
		c, err := combine.New(1, shardIDs, 0)
		must(err)
		for _, p := range partials {
			must(c.Add(p))
		}
		_, err = c.Seal()
		must(err)
	})
	wire, err := combine.EncodePartial(partials[0])
	must(err)
	out["combine.encode_partial_us"] = 1e6 * perCall(func() {
		_, err := combine.EncodePartial(partials[0])
		must(err)
	})
	out["combine.decode_partial_us"] = 1e6 * perCall(func() {
		_, err := combine.DecodePartial(wire)
		must(err)
	})
}

// memKernel times one small frame through the in-memory transport: one
// connection, no protocol on top.
func memKernel(out map[string]float64, perCall perCallFunc) {
	net := transport.NewMemoryNetwork(memBuffer)
	msrv := net.Server()
	mc, err := net.Connect(1)
	must(err)
	small := transport.Frame{Stage: 1, Payload: make([]byte, 64)}
	out["transport.mem_frame_us"] = 1e6 * perCall(func() {
		must(mc.Send(small))
		_, err := msrv.Recv(context.Background())
		must(err)
	})
}

// tcpKernels times loopback TCP on its own: one connection, no protocol
// on top, then a cohort's worth of dials.
func tcpKernels(out map[string]float64, dials int, perCall perCallFunc) {
	ctx := context.Background()
	srv, err := transport.ListenTCP("127.0.0.1:0")
	must(err)
	defer srv.Close()
	conn, err := transport.DialTCP(srv.Addr(), 1)
	must(err)
	defer conn.Close()
	// 64-byte ping-pong: two frames, two kernel crossings each way.
	small := transport.Frame{Stage: 1, Payload: make([]byte, 64)}
	out["transport.tcp_small_rtt_us"] = 1e6 * perCall(func() {
		must(conn.Send(small))
		_, err := srv.Recv(ctx)
		must(err)
		must(srv.SendTo(1, small))
		_, err = conn.Recv(ctx)
		must(err)
	})
	// 512 KiB frames, the masked upload of flat_session_tcp; the sender
	// stays one frame ahead so the stream never drains.
	big := transport.Frame{Stage: 1, Payload: make([]byte, 512<<10)}
	must(conn.Send(big))
	out["transport.tcp_mb_per_s"] = float64(len(big.Payload)) / mb / perCall(func() {
		must(conn.Send(big))
		_, err := srv.Recv(ctx)
		must(err)
	})
	_, err = srv.Recv(ctx)
	must(err)

	// dial: until the server has registered every connection
	dsrv, err := transport.ListenTCP("127.0.0.1:0")
	must(err)
	defer dsrv.Close()
	t0 := time.Now()
	conns := make([]*transport.TCPClient, dials)
	for i := range conns {
		conns[i], err = transport.DialTCP(dsrv.Addr(), uint64(i+1))
		must(err)
	}
	for len(dsrv.Clients()) < dials {
		time.Sleep(50 * time.Microsecond)
	}
	out["transport.dial_s"] = time.Since(t0).Seconds()
	for _, c := range conns {
		c.Close()
	}
}
