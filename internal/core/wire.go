package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/session"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// Wire driver: runs one SecAgg(+XNoise) round over a transport.Transport.
// Both sides walk the substrate's stage tables (secagg.Server.Program,
// secagg.Client.Program) through the engine's wire walkers — frames are
// admitted as they arrive, decoded by the binary codec (codec.go,
// control.go) and applied to the incremental secagg.Server where they are
// admitted, in admission order, each stage waiting until every live client answered or
// the stage deadline fired (the deadline-based collection of the paper's
// §2.1). What remains here is what is not a stage: configuration, the
// transcript tail that follows the result, and session taint.

// WireServerConfig configures the wire server for one round.
type WireServerConfig struct {
	SecAgg        secagg.Config
	StageDeadline time.Duration // per-stage collection deadline

	// Session, when non-nil, carries the server's key-agreement caches
	// across the rounds that share it; with Resume, the advertise stage is
	// skipped entirely and the round starts from the session's cached
	// roster (the deployment must set the matching flags on every client).
	// Whether the next round may resume is what the re-key handshake
	// (RunHandshakeServer) negotiates.
	Session *secagg.ServerSession
	Resume  bool
	// Divergent, with Resume, makes the resume partial (Handshake.Divergent
	// from the handshake): the advertise stage collects fresh keys from
	// exactly this subset, merges them with the session's cached roster, and
	// broadcasts the merged roster to everyone. Empty means a full resume
	// with no advertise stage at all.
	Divergent []uint64

	// Engine, when non-nil, is an externally owned round engine whose
	// transport fan-in this round collects through. Multi-round deployments
	// must share one engine across the handshake and every round on a
	// connection — a second fan-in would steal frames from the first. nil
	// builds a round-scoped engine (single-round callers).
	Engine *engine.Engine

	// Transcript, when non-nil, turns on the verifiable-transcript layer
	// (internal/transcript): masked-input digests are captured during the
	// round (SecAgg.TranscriptDigests is forced on), and after the result
	// broadcast the recorder builds, signs, and chains the round
	// transcript, broadcasting the Commitment (engine.TagTranscriptCommit)
	// to every survivor followed by each survivor's inclusion Proof
	// (engine.TagTranscriptProof). Multi-round deployments share one
	// Recorder across rounds so the roots chain.
	Transcript *transcript.Recorder
}

// RunWireServer drives the server side of one round through the shared
// round engine and returns the aggregation result. ctx bounds the whole
// round; cfg.StageDeadline bounds each stage's collection (≤0:
// engine.DefaultDeadline).
func RunWireServer(ctx context.Context, cfg WireServerConfig, conn transport.ServerConn) (*secagg.Result, error) {
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("core: resume requires a server session")
	}
	if cfg.Transcript != nil {
		cfg.SecAgg.TranscriptDigests = true
	}
	server, err := secagg.NewSessionServer(cfg.SecAgg, cfg.Session)
	if err != nil {
		return nil, err
	}
	var round secagg.ServerRound
	program := server.Program(&round, cfg.Resume, cfg.Divergent)
	if err := engine.ServeWire(ctx, conn, cfg.Engine, wireCodec, cfg.StageDeadline, program); err != nil {
		return nil, err
	}
	if cfg.Transcript != nil {
		if err := emitTranscript(cfg.Transcript, cfg.SecAgg.Round, round.Roster, server, &round.Result, conn); err != nil {
			return nil, fmt.Errorf("core: round transcript: %w", err)
		}
	}
	return &round.Result, nil
}

// emitTranscript builds, chains, and ships the round transcript after the
// result: the signed Commitment broadcast to every survivor, then each
// survivor's own inclusion proof. A build or chain failure is a hard
// error — the server's integrity state is wrong, not a client's problem
// to degrade around — while a send failure is the usual vanished-client
// soft case.
func emitTranscript(rec *transcript.Recorder, round uint64, roster []secagg.AdvertiseMsg,
	server *secagg.Server, res *secagg.Result, conn transport.ServerConn) error {
	t, err := rec.BuildRound(round, session.RosterEntries(roster), server.MaskedDigests())
	if err != nil {
		return err
	}
	commit, err := transcript.EncodeCommitment(&t.Commitment)
	if err != nil {
		return err
	}
	engine.Broadcast(conn, engine.TagTranscriptCommit, commit, res.Survivors...)
	for _, id := range res.Survivors {
		pr, err := t.ProofFor(id)
		if err != nil {
			// A survivor without a committed digest cannot happen in a
			// well-formed round (U5 ⊆ U3); skipping keeps the round alive
			// and that client's own verification will fail loudly.
			continue
		}
		payload, err := transcript.EncodeProof(pr)
		if err != nil {
			return err
		}
		engine.Broadcast(conn, engine.TagTranscriptProof, payload, id)
	}
	return nil
}

// NoDrop is the WireClientConfig.DropBefore value of a wire client that
// never drops out. It is not a drop-schedule entry: a schedule lists only
// clients that drop, each before a stage, and RoundConfig.Validate refuses
// NoDrop there.
const NoDrop secagg.Stage = -1

// WireClientConfig configures one wire client.
type WireClientConfig struct {
	SecAgg secagg.Config
	ID     uint64
	Input  ring.Vector
	// DropBefore makes the client vanish before the given protocol stage
	// (testing hook matching secagg.DropSchedule). Use NoDrop for a client
	// that completes the round.
	DropBefore secagg.Stage
	Rand       io.Reader

	// Session, when non-nil, carries this client's key pairs and pairwise
	// secrets across the rounds that share it; with Resume, the advertise
	// round trip is skipped and the client resumes on its cached roster
	// (the deployment must set the matching flags on the server). It also
	// keeps the client's one buffer, which the round's result is received
	// into: the returned Result.Sum is valid until the session's next
	// round, so a caller that keeps a sum longer copies it.
	Session *secagg.Session
	Resume  bool
	// Divergent, with Resume, makes the resume partial (Handshake.Divergent
	// from the handshake). A divergent client advertises its fresh keys like
	// a re-keyed one; every other client skips advertise but waits for the
	// merged roster broadcast instead of reusing its cached copy.
	Divergent []uint64

	// Transcript, when non-nil, turns on client-side transcript
	// verification (internal/transcript): the client records its own
	// masked-upload digest (SecAgg.TranscriptDigests is forced on) and,
	// after the result, blocks for the round Commitment and its own
	// inclusion Proof, verifying the root signature, its roster and input
	// inclusion, and chain continuity before RunWireClient returns. A
	// verification failure fails the round loudly — the aggregate cannot
	// be trusted. Multi-round deployments share one Auditor so the roots
	// chain.
	Transcript *transcript.Auditor
	// CombineTranscript, with Transcript, additionally blocks for the
	// combiner-tier frame (engine.TagCombineTranscript, relayed by the
	// shard aggregator) and verifies this shard's root in the combiner's
	// tree — the second hop of the two-tier audit.
	CombineTranscript *transcript.CombineAuditor
	// TranscriptDeadline bounds the post-result wait for the transcript
	// frames (0 = 10s). A shard whose partial missed the combiner's
	// quorum holds no place in the fold, so no combiner-tier proof ever
	// arrives for its clients — the bounded wait turns that into a loud
	// audit failure instead of a hung round. (Correctly so: such a
	// client's contribution is NOT in the global aggregate.)
	TranscriptDeadline time.Duration
}

// RunWireClient drives the client side of one round. It returns the
// decoded round result frame (nil for clients that dropped or when the
// protocol ended before dispatch).
func RunWireClient(ctx context.Context, cfg WireClientConfig, conn transport.ClientConn) (*secagg.Result, error) {
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("core: resume requires a client session")
	}
	if cfg.Transcript != nil {
		cfg.SecAgg.TranscriptDigests = true
	}
	client, err := secagg.NewSessionClient(cfg.SecAgg, cfg.ID, cfg.Input, nil, cfg.Rand, cfg.Session)
	if err != nil {
		return nil, err
	}
	var round secagg.ClientRound
	program := client.Program(&round, cfg.Resume, cfg.Divergent)
	if err := engine.JoinWire(ctx, conn, wireCodec, program, int(cfg.DropBefore)); err != nil {
		return nil, err
	}
	if !round.Received {
		return nil, nil
	}
	// The transcript frames follow the result on the same ordered
	// connection; a failed audit fails the round before the taint is
	// cleared — a round whose aggregate the client cannot verify is not a
	// clean completion. The wait is bounded: an aggregator that never sends
	// the frames (transcripts off, or this shard's partial missed the fold)
	// fails the audit instead of hanging the client.
	if cfg.Transcript != nil {
		td := cfg.TranscriptDeadline
		if td <= 0 {
			td = 10 * time.Second
		}
		tctx, tcancel := context.WithTimeout(ctx, td)
		err := verifyClientTranscript(tctx, cfg, client, round.Roster, conn)
		tcancel()
		if err != nil {
			return nil, err
		}
	}
	// Clean completion: the server cannot have reconstructed this client's
	// mask key, so the session may resume at the next handshake (the
	// handshake set the taint when the round began).
	if cfg.Session != nil {
		cfg.Session.ClearTaint()
	}
	return &round.Result, nil
}

// verifyClientTranscript runs the client's post-result audit: await the
// round Commitment and this client's Proof on conn, check signature +
// inclusion + chain through the auditor, and (for sharded deployments) the
// combiner-tier frame through the combine auditor.
func verifyClientTranscript(ctx context.Context, cfg WireClientConfig, client *secagg.Client,
	roster []secagg.AdvertiseMsg, conn transport.ClientConn) error {
	commit, err := engine.Await(ctx, conn, engine.TagTranscriptCommit, transcript.DecodeCommitment)
	if err != nil {
		return fmt.Errorf("core: client %d awaiting transcript commitment: %w", cfg.ID, err)
	}
	proof, err := engine.Await(ctx, conn, engine.TagTranscriptProof, transcript.DecodeProof)
	if err != nil {
		return fmt.Errorf("core: client %d awaiting inclusion proof: %w", cfg.ID, err)
	}
	var self transcript.RosterEntry
	found := false
	for _, m := range roster {
		if m.From == cfg.ID {
			self = transcript.RosterEntry{ID: m.From, CipherPub: m.CipherPub, MaskPub: m.MaskPub}
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("core: client %d has no roster entry to audit against", cfg.ID)
	}
	digest, ok := client.MaskedDigest()
	if !ok {
		return fmt.Errorf("core: client %d recorded no masked digest", cfg.ID)
	}
	if err := cfg.Transcript.VerifyRound(commit, proof, self, digest); err != nil {
		return fmt.Errorf("core: client %d transcript audit: %w", cfg.ID, err)
	}
	if cfg.CombineTranscript != nil {
		tier, err := engine.Await(ctx, conn, engine.TagCombineTranscript, transcript.DecodeCombineTier)
		if err != nil {
			return fmt.Errorf("core: client %d awaiting combiner-tier transcript: %w", cfg.ID, err)
		}
		if err := cfg.CombineTranscript.VerifyTier(&tier.Commitment, &tier.Proof, commit.Root()); err != nil {
			return fmt.Errorf("core: client %d combiner-tier audit: %w", cfg.ID, err)
		}
	}
	return nil
}
