// Package engine is the concurrent round engine every aggregation round
// in the repository runs on. It has two layers.
//
// Collect is deadline-bounded, streaming collection of one stage's
// messages. The paper's central systems claim (§4.1, Appendix C schedule)
// is that aggregation latency hides when stage work is pipelined rather
// than barriered; Collect realizes that on the server's collection path:
// instead of buffering a whole stage's messages and then decoding and
// aggregating them in one barrier, it admits messages as they arrive,
// decodes them concurrently across a bounded worker pool, and feeds an
// incremental per-message sink (the Add* methods of secagg.Server and
// lightsecagg.Server) behind a pipeline.Gate, which serializes the sink in
// admission order while the next arrivals are still being decoded. A
// 64-client masked-input stage therefore costs collection time plus an
// O(1) seal, not collection time plus n decodes plus n vector adds.
// Stages that need any-K-of-N completion rather than all-of-N
// (LightSecAgg's one-shot recovery accepts any U aggregate shares) set
// Stage.Quorum.
//
// The stage walkers (program.go) run a whole round: a substrate exports
// its server and client rounds as ordered stage tables, and one server
// walker and one client walker run any table over either network — typed
// values over channels in-process (RunLocal), a Codec's encodings over a
// transport with a per-stage deadline on the wire (ServeWire, JoinWire).
// The engine stays protocol-agnostic throughout: message bodies are
// opaque, and everything substrate-specific is a table row. See
// ARCHITECTURE.md for how this maps onto the paper's pipeline stages.
package engine

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/transport"
)

// Msg is one protocol message offered to the engine. Body is opaque: the
// wire passes the raw frame payload ([]byte), an in-process round passes
// typed protocol messages (or an error, which the walker's Apply surfaces
// to abort the round).
type Msg struct {
	From  uint64
	Stage int
	Body  any
}

// release hands a wire message's frame payload back to the transport
// (transport.Release; ARCHITECTURE.md "Frame ownership"). The engine owns
// every release point: Collect calls it once a frame's Apply has returned
// or the frame is discarded, so a Decode may borrow from the payload —
// core's masked-input decoder does — as long as Apply retains nothing of
// it. Typed in-process bodies have no frame.
func (m Msg) release() {
	if p, ok := m.Body.([]byte); ok {
		transport.Release(p)
	}
}

// Re-key handshake frame tags, shared by every substrate. The round
// stages start at tag 0 (secagg: 0–11, lightsecagg: 0–7), so the
// handshake tags are reserved well above both spaces: one connection — and
// one engine fan-in — carries a handshake followed by round traffic
// without a handshake frame ever aliasing a round stage, and vice versa.
// The handshake message codecs live in package core (core/handshake.go);
// PROTOCOL.md documents the byte layouts and the state machine.
const (
	TagRoundOffer  = 0x40 // server → clients: signed RoundOffer
	TagRoundAck    = 0x41 // clients → server: RoundAck (session state hash)
	TagRoundCommit = 0x42 // server → clients: signed RoundCommit (final decision)
	TagRoundHello  = 0x43 // clients → server: ready for the next offer
)

// Combiner frame tags: the shard-aggregator ↔ root-combiner leg of the
// two-level sharded topology (core.RunCombiner / core.RunShardWire). Like
// the handshake family they are reserved above every round-stage space, so
// a combiner connection can in principle multiplex with round traffic
// without tag aliasing. The payload codecs live in internal/combine;
// PROTOCOL.md documents the byte layouts and the degraded-round semantics
// (a shard whose partial never arrives degrades the fold, it does not
// abort it).
const (
	TagShardHello    = 0x50 // shard aggregator → combiner: shard online for the round
	TagShardPartial  = 0x51 // shard aggregator → combiner: sealed partial sum + accounting
	TagCombineReport = 0x52 // combiner → shard aggregators: folded RoundReport
)

// Transcript frame tags: the verifiable-round integrity layer
// (internal/transcript). All three are server→client pushes that follow
// the round result — they never enter a Collect, so they share the
// reserved space above the round stages purely to keep tag allocation
// uniform. The payload codecs live in internal/transcript; PROTOCOL.md
// documents the byte layouts and the audit flow.
const (
	TagTranscriptCommit  = 0x60 // server → survivors: signed round Commitment
	TagTranscriptProof   = 0x61 // server → one survivor: its inclusion Proof
	TagCombineTranscript = 0x62 // combiner → shard → survivors: combiner-tier commitment + shard proof
)

// parkable reports whether a mismatched frame should be parked for a
// later Collect instead of discarded. Only RoundHello qualifies: a client
// that bounces mid-round re-dials and sends its next hello immediately,
// while the server is still collecting the in-flight round — dropping
// that hello would make the next handshake wait out its full deadline
// for a frame that already arrived, and hellos are idempotent presence
// signals, safe to replay. Every other tag is NOT parked: acks are
// solicited inside a live ack-Collect, so an ack that arrives outside
// one is stale by definition — parking it would let it shadow the
// sender's genuine ack at the next handshake (admitted first, failing
// the round check as a re-key vote, with the fresh ack then dropped as a
// duplicate) and force a spurious fleet re-key. Offers and commits flow
// server→client and never reach a server Collect; round-stage tags rely
// on the existing discard semantics, unless the running stage claims
// them (Stage.Park).
func parkable(t int) bool { return t == TagRoundHello }

// maxParked bounds the parking map against hostile senders inventing
// ids; real deployments park at most a few frames per bounced client.
const maxParked = 1024

// RecvFunc blocks for the next message from any participant. It must
// honor ctx cancellation; the engine treats any error as "no more
// messages for this stage" (deadline semantics), leaving abort decisions
// to the per-stage threshold checks in the sink's Seal step.
type RecvFunc func(ctx context.Context) (Msg, error)

// Stage describes one deadline-bounded collection stage.
type Stage struct {
	// Name labels the stage in errors and traces.
	Name string
	// Tag is the message stage tag to admit; mismatched messages are
	// discarded (stale retransmits, out-of-order or hostile frames).
	Tag int
	// Expect lists the senders whose messages the stage waits for.
	// Messages from other senders are discarded; duplicates from an
	// admitted sender are discarded (replay idempotence).
	Expect []uint64
	// Quorum, when positive, completes the stage as soon as that many
	// expected senders were admitted instead of waiting for all of them —
	// the any-K-of-N collection LightSecAgg's one-shot recovery needs
	// (any U aggregate shares reconstruct the mask sum; waiting for every
	// survivor would add a straggler tail for no protocol benefit). 0
	// means all of Expect.
	Quorum int
	// QuorumMet, when non-nil, is a predicate quorum: it is consulted
	// after each successful Apply (under the same serialization as the
	// sink, so it may read sink state without locking) and completes the
	// stage as soon as it returns true. It expresses completion
	// conditions a plain count cannot — SecAgg+'s unmask stage is done
	// when every reconstruction *cohort* holds t shares, not when any t
	// global responses arrived. Composes with Quorum and Expect: the
	// stage ends at whichever trigger fires first.
	QuorumMet func() bool
	// Deadline bounds the collection. The stage ends when every expected
	// sender was admitted or the deadline fires, whichever is first; ≤0
	// means the stage is bounded only by ctx (in-process rounds, where
	// every expected participant deterministically answers or errors).
	Deadline time.Duration
	// Decode transforms an admitted message body. Decodes run
	// concurrently across the engine's worker pool — this is the
	// decode→aggregate overlap. nil passes the body through and applies
	// inline on the admission loop.
	Decode func(m Msg) (any, error)
	// Apply feeds one decoded body to the stage sink. The engine
	// serializes Apply calls in admission order (pipeline.Gate), so the
	// sink needs no internal locking.
	Apply func(from uint64, body any) error
	// Park, when non-nil, is asked about every frame of another tag this
	// stage would discard: true parks it for the later Collect of that tag
	// (as hellos always are, see parkable) instead of dropping it. A stage
	// that runs ahead of the one a peer may already be answering uses it —
	// the combiner's presence stage keeps a fast shard's partial. Park
	// only what is known fresh: a parked frame takes its sender's slot in
	// the stage that replays it.
	Park func(m Msg) bool
}

// Engine drives stage collection over one message source. An Engine is
// bound to one round; Collect must be called for one stage at a time, in
// protocol order, from a single goroutine.
type Engine struct {
	recv    RecvFunc
	workers int

	// parked holds frames that arrived during a stage with a different
	// tag — RoundHellos (see parkable) and what a stage's Park claimed —
	// keyed by (tag, sender) so a retransmit replaces rather than
	// accumulates. Only touched from Collect's admission loop
	// (single-goroutine contract), so no locking.
	parked map[parkedKey]Msg
}

type parkedKey struct {
	tag  int
	from uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the concurrent decode pool (default GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// New builds an engine over the message source.
func New(recv RecvFunc, opts ...Option) *Engine {
	e := &Engine{recv: recv, workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	return e
}

// Collect runs one stage: it admits matching messages until every
// expected sender answered or the deadline fired, overlapping Decode and
// Apply as described on Stage, and returns the senders admitted in
// admission order. A Decode or Apply error aborts the stage (remaining
// in-flight work drains first); a deadline is not an error — the caller's
// Seal step decides whether the partial stage clears the protocol
// threshold.
func (e *Engine) Collect(ctx context.Context, s Stage) ([]uint64, error) {
	var cancel context.CancelFunc
	if s.Deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.Deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	want := make(map[uint64]bool, len(s.Expect))
	for _, id := range s.Expect {
		want[id] = true
	}
	admitted := make([]uint64, 0, len(want))
	seen := make(map[uint64]bool, len(want))

	var (
		gate = pipeline.NewGate()
		sem  = make(chan struct{}, e.workers)
		wg   sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel() // unblock recv: the stage is aborting
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}

	target := len(want)
	if s.Quorum > 0 && s.Quorum < target {
		target = s.Quorum
	}
	// process admits one matching message, returning false when the stage
	// must stop (inline apply error).
	process := func(m Msg) bool {
		seen[m.From] = true
		admitted = append(admitted, m.From)
		if s.Decode == nil {
			// Nothing to overlap: apply inline, no goroutine hop.
			err := s.Apply(m.From, m.Body)
			m.release()
			if err != nil {
				fail(err)
				return false
			}
			if s.QuorumMet != nil && s.QuorumMet() {
				return false // predicate quorum met: stop admitting, no error
			}
			return true
		}
		// Reserve the apply slot now (admission order), decode on a
		// worker, then apply behind the gate. Decoding of later arrivals
		// overlaps the serialized applies of earlier ones.
		ticket := gate.Reserve()
		wg.Add(1)
		sem <- struct{}{}
		go func(m Msg, ticket pipeline.Ticket) {
			defer wg.Done()
			defer func() { <-sem }()
			defer m.release() // after Apply: the decoded body may borrow from the frame
			body, err := s.Decode(m)
			gate.Wait(ticket)
			defer gate.Release()
			if err == nil && !failed() {
				err = s.Apply(m.From, body)
				if err == nil && s.QuorumMet != nil && s.QuorumMet() {
					cancel() // predicate quorum met: unblock recv, drain, return
				}
			}
			if err != nil {
				fail(err)
			}
		}(m, ticket)
		return true
	}

	// Replay parked frames addressed to this stage before reading live
	// traffic (see parkable, Stage.Park); entries for this tag are consumed
	// either way.
	stopped := false
	for key, m := range e.parked {
		if key.tag != s.Tag {
			continue
		}
		delete(e.parked, key)
		if stopped || len(seen) >= target || !want[m.From] || seen[m.From] {
			m.release()
			continue
		}
		if !process(m) {
			stopped = true
		}
	}
	for !stopped && len(seen) < target {
		m, err := e.recv(ctx)
		if err != nil {
			break // deadline or abort: proceed with what we have
		}
		if m.Stage != s.Tag || !want[m.From] || seen[m.From] {
			// Stale, out-of-order, unexpected, or duplicate — discarded,
			// except hellos, and what the stage claims, during a
			// *different* stage: those are parked for the Collect they
			// belong to.
			if m.Stage != s.Tag && len(e.parked) < maxParked &&
				(parkable(m.Stage) || s.Park != nil && s.Park(m)) {
				if e.parked == nil {
					e.parked = make(map[parkedKey]Msg)
				}
				key := parkedKey{tag: m.Stage, from: m.From}
				e.parked[key].release() // a retransmit replaces the parked frame
				e.parked[key] = m       // a parked frame keeps its payload until replayed
			} else {
				m.release()
			}
			continue
		}
		if !process(m) {
			break
		}
	}
	wg.Wait()

	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return admitted, err
}

// TransportSource adapts a transport server endpoint to the engine's
// message source: a fan-in goroutine drains the connection into a
// buffered channel for the round's whole lifetime, so slow stage
// processing (decode pool full, apply in progress) never backpressures
// the transport mid-collection. ctx must span the round; cancelling it
// stops the fan-in.
func TransportSource(ctx context.Context, conn transport.ServerConn) RecvFunc {
	frames := make(chan transport.Frame, 256)
	go func() {
		defer close(frames)
		for {
			f, err := conn.Recv(ctx)
			if err != nil {
				return // round over (ctx) or endpoint closed
			}
			select {
			case frames <- f:
			case <-ctx.Done():
				return
			}
		}
	}()
	return func(ctx context.Context) (Msg, error) {
		select {
		case f, ok := <-frames:
			if !ok {
				return Msg{}, transport.ErrClosed
			}
			return Msg{From: f.From, Stage: f.Stage, Body: f.Payload}, nil
		case <-ctx.Done():
			return Msg{}, ctx.Err()
		}
	}
}
