package core

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// wireRig is the one SecAgg wire harness of this package's tests: a server
// and the clients of cfg.ClientIDs on a memory or TCP link, each client's
// input the constant vector of its id. It runs one-shot rounds or, with
// an engine (newServiceRig), a handshake-driven multi-round service —
// one long-lived server engine shared by every handshake and round, as a
// real deployment must. Everything a scenario varies — conn wrappers,
// drop schedules, lenient recovery, sessions, transcripts, restarts, the
// shard role under a combiner (shardedRig) — is a field or a method here,
// so a scenario is its assertions.
type wireRig struct {
	t   *testing.T
	cfg secagg.Config // every round's configuration but Round and KeyRatchet
	ctx context.Context

	net *transport.MemoryNetwork // the memory link; nil over TCP
	tcp *transport.TCPServer     // the TCP link; nil over memory
	srv transport.ServerConn

	handshakeDeadline time.Duration
	stageDeadline     time.Duration

	// wrap, when set, wraps every client connection on every (re)dial.
	wrap func(id uint64, c transport.ClientConn) transport.ClientConn
	// lenient logs a failed client instead of failing the test and
	// re-dials it before the next round, the way the dordis-node reconnect
	// loop recovers (session kept, connection fresh): faults must degrade
	// rounds, not abort the harness. A lenient one-shot round releases its
	// stragglers as soon as the server is done.
	lenient bool
	// wantErr names the error a client's round must fail with.
	wantErr map[uint64]error
	// configure, when set, edits each client's round configuration last.
	configure func(*WireClientConfig)
	// input, when set, is client id's input to a round of cfg; nil: the
	// constant vector of its id.
	input func(id uint64, cfg secagg.Config) ring.Vector
	// results, when non-nil, collects every client's result of the round
	// that ran last (nil for a client that ended without one).
	results map[uint64]*secagg.Result

	// hs is the outcome one-shot rounds run under (zero: a fresh round);
	// a service negotiates its own before every round.
	hs Handshake
	// eng makes the rig a service, whose key generations serve keyRounds
	// rounds; signer signs its handshakes and any rig's transcripts.
	eng       *engine.Engine
	keyRounds int
	signer    *sig.Signer
	// redialMidRound clients re-dial and re-hello right after dropping,
	// while the server is still collecting the round — the engine must
	// park that hello for the next handshake. Other droppers re-dial
	// before the next round.
	redialMidRound map[uint64]bool

	serverSess *secagg.ServerSession      // nil: ephemeral keys
	clientSess map[uint64]*secagg.Session // nil: ephemeral keys
	recorder   *transcript.Recorder       // nil: no transcripts
	auditors   map[uint64]*transcript.Auditor
	tiers      map[uint64]*transcript.CombineAuditor // nil: no combiner tier

	// up makes the rig shard `shard` of a two-level round (newShardedRig):
	// its server runs RunShardWire, whose partial goes up and whose wait
	// for the combiner's report lasts reportDeadline. A scenario may wrap up.
	up             transport.ClientConn
	shard          uint64
	reportDeadline time.Duration
	// serverCtx, when set, also bounds the server's side of every round:
	// cancelling it kills the server mid-round while its clients run on.
	serverCtx context.Context

	mu    sync.Mutex // guards conns and results: clients hang up and re-dial mid-round
	conns map[uint64]transport.ClientConn
}

// newWireRig builds a one-shot rig on link ("memory" or "tcp"). Clients
// dial at the first round, so wrap may be set until then.
func newWireRig(t *testing.T, link string, cfg secagg.Config) *wireRig {
	t.Helper()
	signer, err := sig.NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &wireRig{
		t: t, cfg: cfg, ctx: ctx, signer: signer,
		handshakeDeadline: 2 * time.Second, stageDeadline: 2 * time.Second, keyRounds: 16,
		conns: make(map[uint64]transport.ClientConn),
	}
	switch link {
	case "memory":
		// Room for a 64-client round's bursts, so back-pressure never
		// paces a scenario.
		r.net = transport.NewMemoryNetwork(1024)
		r.srv = r.net.Server()
	case "tcp":
		if r.tcp, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		r.srv = r.tcp
	default:
		t.Fatalf("unknown link %q", link)
	}
	t.Cleanup(func() {
		cancel()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
		r.srv.Close()
	})
	return r
}

// newServiceRig builds a handshake-driven service over memory with
// sessions on both sides and 16-bit inputs.
func newServiceRig(t *testing.T, ids []uint64, threshold, dim int) *wireRig {
	t.Helper()
	r := newWireRig(t, "memory", secagg.Config{ClientIDs: ids, Threshold: threshold, Bits: 16, Dim: dim})
	r.service()
	return r
}

// service makes a memory rig a handshake-driven service with sessions on
// both sides.
func (r *wireRig) service() {
	r.sessions()
	r.eng = engine.New(engine.TransportSource(r.ctx, r.srv))
}

// sessions gives the server and every client a session, so key agreement
// is cached across the rounds that share it.
func (r *wireRig) sessions() {
	r.serverSess = secagg.NewServerSession()
	r.clientSess = make(map[uint64]*secagg.Session)
	for _, id := range r.cfg.ClientIDs {
		r.clientSess[id] = r.newSession()
	}
}

func (r *wireRig) newSession() *secagg.Session {
	s, err := secagg.NewSession(rand.Reader)
	if err != nil {
		r.t.Fatal(err)
	}
	return s
}

// transcripts turns on the transcript layer: the server chains its rounds
// through one Recorder and every client audits through its own Auditor.
func (r *wireRig) transcripts() {
	r.recorder = transcript.NewRecorder(r.signer)
	r.auditors = make(map[uint64]*transcript.Auditor)
	for _, id := range r.cfg.ClientIDs {
		r.auditors[id] = transcript.NewAuditor(r.signer.Public())
	}
}

// seqIDs returns the ids 1..n.
func seqIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

func (r *wireRig) conn(id uint64) transport.ClientConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conns[id]
}

// connect dials client id, through wrap when set, as its connection.
func (r *wireRig) connect(id uint64) (transport.ClientConn, error) {
	var c transport.ClientConn
	var err error
	if r.tcp != nil {
		c, err = transport.DialTCP(r.tcp.Addr(), id)
	} else {
		c, err = r.net.Connect(id)
	}
	if err != nil {
		return nil, err
	}
	if r.wrap != nil {
		c = r.wrap(id, c)
	}
	r.mu.Lock()
	r.conns[id] = c
	r.mu.Unlock()
	return c, nil
}

// dial connects every client that has no connection — all of them before
// the first round, a dropped, failed or restarted one before the next —
// and, over TCP, waits until the server has registered them all.
func (r *wireRig) dial() {
	r.t.Helper()
	for _, id := range r.cfg.ClientIDs {
		if r.conn(id) == nil {
			if _, err := r.connect(id); err != nil {
				r.t.Fatal(err)
			}
		}
	}
	if r.tcp == nil {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); len(r.tcp.Clients()) < len(r.cfg.ClientIDs); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("only %d of %d clients connected", len(r.tcp.Clients()), len(r.cfg.ClientIDs))
		}
	}
}

// hangUp closes client id's connection; the next round re-dials it.
func (r *wireRig) hangUp(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.conns[id]; c != nil {
		c.Close()
		delete(r.conns, id)
	}
}

// persist returns blob, a record marshalled with error err, after a save
// and a load through store when store is set; any error fails the test.
func (r *wireRig) persist(store *sessionstore.Store, name string, blob []byte, err error) []byte {
	r.t.Helper()
	if err == nil && store != nil {
		if err = store.Save(name, blob); err == nil {
			blob, err = store.Load(name)
		}
	}
	if err != nil {
		r.t.Fatal(err)
	}
	return blob
}

// restartClient bounces client id between rounds: it re-dials for the
// next one, its audit history is lost, and its session comes back through
// store — or, with store nil, is lost too, as a process kill without a
// store loses it, which makes the next handshake re-key its edges.
func (r *wireRig) restartClient(id uint64, store *sessionstore.Store) {
	r.t.Helper()
	if store == nil {
		r.clientSess[id] = r.newSession()
	} else {
		blob, err := r.clientSess[id].MarshalBinary()
		if r.clientSess[id], err = secagg.UnmarshalSession(r.persist(store, fmt.Sprintf("client-%d", id), blob, err)); err != nil {
			r.t.Fatal(err)
		}
	}
	if r.auditors != nil {
		r.auditors[id] = transcript.NewAuditor(r.signer.Public())
	}
	r.hangUp(id)
}

// restartServer bounces the aggregator between rounds: its session goes
// through its binary record (and through store, when set) and the
// transcript chain through its own. The signer is key material the
// deployment manages separately.
func (r *wireRig) restartServer(store *sessionstore.Store) {
	r.t.Helper()
	blob, err := r.serverSess.MarshalBinary()
	if r.serverSess, err = secagg.UnmarshalServerSession(r.persist(store, "server", blob, err)); err != nil {
		r.t.Fatal(err)
	}
	if r.recorder != nil {
		blob, err := r.recorder.MarshalBinary()
		if err == nil {
			r.recorder, err = transcript.UnmarshalRecorder(blob, r.signer)
		}
		if err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *wireRig) config(round, ratchet uint64) secagg.Config {
	c := r.cfg
	c.Round, c.KeyRatchet = round, ratchet
	return c
}

// round runs one round and fails the test if the server's does.
func (r *wireRig) round(round uint64, drops secagg.DropSchedule) (Handshake, *secagg.Result) {
	r.t.Helper()
	hs, res, err := r.try(round, drops)
	if err != nil {
		r.t.Fatal(err)
	}
	return hs, res
}

// try runs one round — on a service, the handshake first — in which the
// clients of drops vanish before the given stage, and returns the server's
// outcome.
func (r *wireRig) try(round uint64, drops secagg.DropSchedule) (hs Handshake, res *secagg.Result, err error) {
	r.t.Helper()
	err = r.launch(func(ctx context.Context, id uint64, conn transport.ClientConn) {
		drop, dropping := drops[id]
		if !dropping {
			drop = NoDrop
		}
		r.client(ctx, round, id, drop, conn)
	}, func(ctx context.Context) error {
		hs, res, err = r.serve(ctx, round)
		return err
	})
	return hs, res, err
}

// launch runs client on a goroutine of its own for every client and
// server on the caller's, then waits for the clients. A failed server
// releases them first, and so does a lenient one-shot round, whose
// stragglers wait on frames nothing will send.
func (r *wireRig) launch(client func(ctx context.Context, id uint64, conn transport.ClientConn),
	server func(ctx context.Context) error) error {
	r.t.Helper()
	r.dial()
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	if r.eng == nil {
		// One deadline bounds a one-shot round, server and clients alike,
		// and leaves room for the stages' own deadlines.
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(ctx, max(30*time.Second, 8*r.stageDeadline))
		defer stop()
	}
	var wg sync.WaitGroup
	for _, id := range r.cfg.ClientIDs {
		conn := r.conn(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(ctx, id, conn)
		}()
	}
	err := server(ctx)
	if err != nil || r.lenient && r.eng == nil {
		cancel()
	}
	wg.Wait()
	return err
}

// serve runs the server's side of one round.
func (r *wireRig) serve(ctx context.Context, round uint64) (Handshake, *secagg.Result, error) {
	if r.serverCtx != nil {
		var kill context.CancelFunc
		ctx, kill = context.WithCancel(ctx)
		defer kill()
		defer context.AfterFunc(r.serverCtx, kill)()
	}
	hs := r.hs
	if r.eng != nil {
		var err error
		if hs, err = RunHandshakeServer(ctx, HandshakeConfig{
			Round: round, Protocol: ProtocolSecAgg, ClientIDs: r.cfg.ClientIDs,
			KeyRounds: r.keyRounds, Deadline: r.handshakeDeadline, Signer: r.signer,
		}, r.serverSess, r.eng, r.srv); err != nil {
			return hs, nil, fmt.Errorf("server handshake %d: %w", round, err)
		}
	}
	cfg := WireServerConfig{
		SecAgg: r.config(round, hs.Ratchet), StageDeadline: r.stageDeadline,
		Session: r.serverSess, Resume: hs.Resume, Divergent: hs.Divergent,
		Engine: r.eng, Transcript: r.recorder,
	}
	var res *secagg.Result
	var err error
	if r.up == nil {
		res, err = RunWireServer(ctx, cfg, r.srv)
	} else {
		_, res, err = RunShardWire(ctx, ShardWireConfig{
			Shard: r.shard, Round: round, Server: cfg,
			ReportDeadline: r.reportDeadline, RelayCombineTranscript: r.tiers != nil,
		}, r.srv, r.up)
	}
	if err != nil {
		return hs, nil, fmt.Errorf("server round %d: %w", round, err)
	}
	return hs, res, nil
}

// client runs client id's side of one round.
func (r *wireRig) client(ctx context.Context, round, id uint64, drop secagg.Stage, conn transport.ClientConn) {
	if r.lenient && r.eng != nil {
		// A client starved by injected faults must time out and re-dial,
		// not wedge the service.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.handshakeDeadline+8*r.stageDeadline+time.Second)
		defer cancel()
	}
	hs := r.hs
	if r.eng != nil {
		var err error
		if hs, err = RunHandshakeClient(ctx, ClientHandshakeConfig{
			ID: id, Protocol: ProtocolSecAgg, ServerPub: r.signer.Public(), Rand: rand.Reader,
		}, r.clientSess[id], conn); err != nil {
			r.fail(id, round, fmt.Errorf("handshake: %w", err))
			return
		}
	}
	var input ring.Vector
	if r.input != nil {
		input = r.input(id, r.cfg)
	} else {
		input = ring.NewVector(r.cfg.Bits, r.cfg.Dim)
		for i := range input.Data {
			input.Data[i] = id
		}
	}
	cfg := WireClientConfig{
		SecAgg: r.config(round, hs.Ratchet), ID: id, Input: input, DropBefore: drop, Rand: rand.Reader,
		Session: r.clientSess[id], Resume: hs.Resume, Divergent: hs.Divergent,
		Transcript: r.auditors[id], CombineTranscript: r.tiers[id],
	}
	if r.configure != nil {
		r.configure(&cfg)
	}
	res, err := RunWireClient(ctx, cfg, conn)
	if r.results != nil {
		r.mu.Lock()
		r.results[id] = res
		r.mu.Unlock()
	}
	switch want := r.wantErr[id]; {
	case want != nil:
		if !errors.Is(err, want) {
			r.t.Errorf("client %d round %d: error %v, want %v", id, round, err, want)
		}
	case drop == NoDrop:
		if err != nil {
			r.fail(id, round, err)
		}
	case r.redialMidRound[id]:
		// The round is still in flight on the server, yet the bounced
		// client is already back, saying hello for the next one.
		nc, err := r.connect(id)
		if err == nil {
			err = nc.Send(transport.Frame{Stage: engine.TagRoundHello, Payload: []byte{codecMagic, tagRoundHello, handshakeVersion}})
		}
		if err != nil {
			r.t.Errorf("client %d mid-round re-dial: %v", id, err)
		}
	default:
		r.hangUp(id)
	}
}

// fail reports a client's failed round: a test error, or on a lenient rig
// a log line and a re-dial before the next round.
func (r *wireRig) fail(id, round uint64, err error) {
	if !r.lenient {
		r.t.Errorf("client %d round %d: %v", id, round, err)
		return
	}
	r.t.Logf("client %d round %d: %v", id, round, err)
	r.hangUp(id)
}

// checkSum asserts an exact aggregate: every coordinate is the sum of the
// survivors' ids in the ring.
func (r *wireRig) checkSum(res *secagg.Result, survivors []uint64) {
	r.t.Helper()
	var want uint64
	for _, id := range survivors {
		want += id
	}
	want &= 1<<r.cfg.Bits - 1
	for i, v := range res.Sum {
		if v != want {
			r.t.Fatalf("sum[%d] = %d, want %d (survivors %v)", i, v, want, survivors)
		}
	}
}

// checkMean asserts a noisy aggregate: the centered sum's mean offset from
// the survivors' ids is within 5, where XNoise at variance 30 (std ≈ 5.5)
// over 32 coordinates leaves a standard error of ≈ 1.
func (r *wireRig) checkMean(res *secagg.Result, survivors []uint64) {
	r.t.Helper()
	var want float64
	for _, id := range survivors {
		want += float64(id)
	}
	centered := ring.Vector{Bits: r.cfg.Bits, Data: res.Sum}.Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v) - want
	}
	mean /= float64(len(centered))
	if math.Abs(mean) > 5 {
		r.t.Errorf("aggregate mean offset %v (survivors %v)", mean, survivors)
	}
}

// shardedRig is the two-level topology on the one rig: a memory-link
// wireRig per ShardPlan sub-roster, each a shard whose uplink leads to one
// combiner, whose engine spans the rig's rounds as the combiner role's
// does. The combiner's quorum and deadline are fields here; anything per
// shard — its config, server context, uplink wrapper, lenience, sessions —
// is set on shards[s].
type shardedRig struct {
	t      *testing.T
	ctx    context.Context
	plan   *ShardPlan
	shards []*wireRig
	// srv is the combiner's end of the uplinks, which a scenario may wrap
	// until the first round builds eng over it.
	srv transport.ServerConn
	eng *engine.Engine

	// quorum is the combiner's (0: every shard); stageDeadline bounds its
	// stages and each shard's wait for the report.
	quorum        int
	stageDeadline time.Duration
	recorder      *transcript.Recorder // the combiner's transcripts; nil: none
	// sealed is closed when the current round's RunCombiner returns.
	sealed chan struct{}
}

// newShardedRig splits ids into shards sub-rosters and makes each a
// one-shot memory rig of cfg over its sub-roster.
func newShardedRig(t *testing.T, ids []uint64, shards int, cfg secagg.Config) *shardedRig {
	t.Helper()
	plan, err := NewShardPlan(ids, shards)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	net := transport.NewMemoryNetwork(64)
	r := &shardedRig{t: t, ctx: ctx, plan: plan, srv: net.Server(), stageDeadline: 10 * time.Second}
	t.Cleanup(func() {
		cancel()
		for _, sh := range r.shards {
			sh.up.Close()
		}
		r.srv.Close()
	})
	for s, sub := range plan.Rosters {
		cfg.ClientIDs = sub
		sh := newWireRig(t, "memory", cfg)
		if sh.up, err = net.Connect(uint64(s)); err != nil {
			t.Fatal(err)
		}
		sh.shard = uint64(s)
		r.shards = append(r.shards, sh)
	}
	return r
}

// transcripts turns on both tiers: every shard chains its rounds, which its
// clients audit, and the combiner chains its own, which every client
// audits too, relayed by its shard.
func (r *shardedRig) transcripts() {
	signer, err := sig.NewSigner(rand.Reader)
	if err != nil {
		r.t.Fatal(err)
	}
	r.recorder = transcript.NewRecorder(signer)
	for _, sh := range r.shards {
		sh.transcripts()
		sh.tiers = make(map[uint64]*transcript.CombineAuditor)
		for _, id := range sh.cfg.ClientIDs {
			sh.tiers[id] = transcript.NewCombineAuditor(signer.Public())
		}
	}
}

// shardOutcome is one shard's side of a two-level round.
type shardOutcome struct {
	hs  Handshake
	err error
}

// round runs one two-level round: every shard's round concurrently, in
// which the clients of drops vanish before the given stage, and the
// combiner on the caller's goroutine. It returns the combiner's report and
// error and each shard's outcome.
func (r *shardedRig) round(round uint64, drops secagg.DropSchedule) (*combine.RoundReport, []shardOutcome, error) {
	r.t.Helper()
	if r.eng == nil {
		r.eng = engine.New(engine.TransportSource(r.ctx, r.srv))
	}
	r.sealed = make(chan struct{})
	out := make([]shardOutcome, len(r.shards))
	var wg sync.WaitGroup
	for s, sh := range r.shards {
		own := make(secagg.DropSchedule)
		for id, st := range drops {
			if r.plan.ShardOf(id) == s {
				own[id] = st
			}
		}
		sh.reportDeadline = r.stageDeadline
		sh.dial() // here, so a failed dial fails the test on its own goroutine
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[s].hs, _, out[s].err = sh.try(round, own)
		}()
	}
	report, err := RunCombiner(context.Background(), CombinerConfig{
		Round: round, ShardIDs: r.plan.ShardIDs(), Quorum: r.quorum, StageDeadline: r.stageDeadline,
		AwaitHellos: true, Engine: r.eng, Transcript: r.recorder,
	}, r.srv)
	close(r.sealed)
	wg.Wait()
	return report, out, err
}

// clean runs a round that must complete whole: the combiner folds every
// shard and every shard's server succeeds.
func (r *shardedRig) clean(round uint64, drops secagg.DropSchedule) (*combine.RoundReport, []shardOutcome) {
	r.t.Helper()
	report, out, err := r.round(round, drops)
	if err != nil {
		r.t.Fatalf("combiner round %d: %v", round, err)
	}
	for s, o := range out {
		if o.err != nil {
			r.t.Fatalf("shard %d round %d: %v", s, round, o.err)
		}
	}
	if report.Degraded {
		r.t.Fatalf("round %d degraded: missing shards %v", round, report.Missing)
	}
	return report, out
}

// checkSum asserts a fold's accounting and an exact aggregate: the
// report's survivors are survivors, and every coordinate is their ids' sum.
func (r *shardedRig) checkSum(report *combine.RoundReport, survivors []uint64) {
	r.t.Helper()
	if !slices.Equal(report.Survivors, survivors) {
		r.t.Fatalf("survivors = %v, want %v", report.Survivors, survivors)
	}
	r.shards[0].checkSum(&secagg.Result{Sum: report.Sum.Data}, survivors)
}
