// Package engine is the round engine every aggregation round in the
// repository runs on. It has two layers.
//
// Collect is deadline-bounded, streaming collection of one stage's
// messages. The paper's central systems claim (§4.1, Appendix C schedule)
// is that aggregation latency hides when stage work is pipelined rather
// than barriered; Collect realizes that on the server's collection path:
// instead of buffering a whole stage's messages and then decoding and
// aggregating them in one barrier, it is one loop that admits a message,
// decodes it and feeds it to an incremental per-message sink (the Add*
// methods of secagg.Server) while the later
// messages are still arriving — on the wire, into TransportSource's
// buffered fan-in. A 64-client masked-input stage therefore costs
// collection time plus an O(1) seal, not collection time plus n decodes
// plus n vector adds. The loop is the only goroutine a stage has, so the
// sink is fed in admission order and needs no locking, and a stage's
// waiting, decode and apply time are three clock readings in one place.
// A stage that may complete before all-of-N says when in one predicate,
// Stage.QuorumMet: the combiner's presence stage is done at its quorum of
// shard hellos, SecAgg's unmask stage when every reconstruction cohort
// holds t shares.
//
// The stage walkers (program.go) run a whole round: SecAgg exports its
// server and client rounds as ordered stage tables, and one server
// walker and one client cursor run them over either network — typed
// values in lockstep in-process (RunLocal), each downlink's recipients
// stepping on ForEach's bounded claiming workers, or a Codec's encodings
// over a transport with a per-stage deadline on the wire (ServeWire,
// JoinWire). Every frame outside the stage tables — the handshake, the
// transcript tail, the combiner leg — goes through two primitives,
// Broadcast (and its one-recipient twin Uplink) and Await; with the walkers
// they are every point at which a frame goes back to the transport.
// The engine stays protocol-agnostic throughout: message bodies are
// opaque, and everything substrate-specific is a table row — how a round
// resumes included, so neither walker special-cases a step index. See
// ARCHITECTURE.md for how this maps onto the paper's pipeline stages.
package engine

import (
	"context"
	"time"

	"repro/internal/transport"
)

// Msg is one protocol message offered to the engine. Body is opaque: the
// wire passes the raw frame payload ([]byte), an in-process round passes
// typed protocol messages.
type Msg struct {
	From  uint64
	Stage int
	Body  any
}

// release hands a wire message's frame payload back to the transport
// (transport.Release; ARCHITECTURE.md "Frame ownership"). The engine owns
// every release point — the two walkers and the two primitives, Broadcast
// (with Uplink) and Await: Collect calls it once a frame's Apply has
// returned or the frame is discarded, so a Decode may borrow from the
// payload — core's masked-input decoder does — as long as Apply retains
// nothing of it. The client walker releases a downlink frame after its
// step's Do likewise, Broadcast and Uplink a payload after its last write,
// Await a frame after its decode. Typed in-process bodies have no frame.
func (m Msg) release() {
	if p, ok := m.Body.([]byte); ok {
		transport.Release(p)
	}
}

// Re-key handshake frame tags, shared by every substrate. The round
// stages start at tag 0 (secagg: 0–11), so the handshake tags are
// reserved well above that space: one connection — and
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
	// QuorumMet, when non-nil, is the stage's one quorum rule: it is
	// consulted after each successful Apply (on the same goroutine, so it
	// may read sink state without locking) and completes the stage as soon
	// as it returns true, instead of waiting for all of Expect. A count is
	// a predicate over the sink — the combiner's presence stage is done at
	// its quorum of shards (waiting for every shard would add a straggler
	// tail for no protocol benefit) — and so is what a count cannot say:
	// SecAgg+'s unmask stage is done when every reconstruction *cohort*
	// holds t shares, not when any t global responses arrived. The stage
	// ends at whichever of QuorumMet and all-of-Expect comes first.
	QuorumMet func() bool
	// Deadline bounds the collection. The stage ends when every expected
	// sender was admitted or the deadline fires, whichever is first; ≤0
	// means the stage is bounded only by ctx (in-process rounds, where
	// every expected participant deterministically answers or errors).
	Deadline time.Duration
	// Decode transforms an admitted message body on the admission loop,
	// just before its Apply; it may borrow from a wire frame's payload,
	// which is released after that Apply. nil passes the body through.
	Decode func(m Msg) (any, error)
	// Apply feeds one decoded body to the stage sink. Collect calls it
	// from its own goroutine, one message at a time in admission order,
	// so the sink needs no internal locking.
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
	recv RecvFunc

	// parked holds frames that arrived during a stage with a different
	// tag — RoundHellos (see parkable) and what a stage's Park claimed —
	// keyed by (tag, sender) so a retransmit replaces rather than
	// accumulates.
	parked map[parkedKey]Msg

	pending map[uint64]bool // Collect's senders still expected, emptied per stage
}

type parkedKey struct {
	tag  int
	from uint64
}

// New builds an engine over the message source.
func New(recv RecvFunc) *Engine { return &Engine{recv: recv} }

// Collect runs one stage: it admits matching messages until every
// expected sender answered, a quorum was met or the deadline fired, runs
// each through Decode and Apply where it admits it, and returns the
// senders admitted in admission order. The first Decode or Apply error
// ends the stage: nothing admitted later is decoded or applied. A deadline
// is not an error — the caller's Seal step decides whether the partial
// stage clears the protocol threshold.
func (e *Engine) Collect(ctx context.Context, s Stage) ([]uint64, error) {
	if s.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Deadline)
		defer cancel()
	}

	// pending holds the expected senders not yet admitted.
	if e.pending == nil {
		e.pending = make(map[uint64]bool, len(s.Expect))
	}
	pending := e.pending
	clear(pending)
	for _, id := range s.Expect {
		pending[id] = true
	}
	admitted := make([]uint64, 0, len(pending))

	// process admits one matching message and runs it through the stage;
	// done reports that the stage is over: an error, or the predicate
	// quorum met.
	process := func(m Msg) (done bool, err error) {
		delete(pending, m.From)
		admitted = append(admitted, m.From)
		body := m.Body
		if s.Decode != nil {
			body, err = s.Decode(m)
		}
		if err == nil {
			err = s.Apply(m.From, body)
		}
		m.release() // after Apply: the decoded body may borrow from the frame
		return err != nil || s.QuorumMet != nil && s.QuorumMet(), err
	}

	// Replay parked frames addressed to this stage before reading live
	// traffic (see parkable, Stage.Park); entries for this tag are consumed
	// either way.
	var (
		done bool
		err  error
	)
	for key, m := range e.parked {
		if key.tag != s.Tag {
			continue
		}
		delete(e.parked, key)
		if done || !pending[m.From] {
			m.release()
			continue
		}
		done, err = process(m)
	}
	for !done && len(pending) > 0 {
		m, rerr := e.recv(ctx)
		if rerr != nil {
			break // deadline or abort: proceed with what we have
		}
		if m.Stage != s.Tag || !pending[m.From] {
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
		done, err = process(m)
	}
	return admitted, err
}

// TransportSource adapts a transport server endpoint to the engine's
// message source: a fan-in goroutine drains the connection into a
// buffered channel for the round's whole lifetime, so stage processing
// (a decode or an apply in progress) overlaps the arrival of later frames
// and never backpressures the transport mid-collection. ctx must span the
// round; cancelling it stops the fan-in.
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
