package lightsecagg

// Wire driver: one LightSecAgg round over a transport.Transport — the
// substrate's stage tables (Program) walked by engine.ServeWire and
// engine.JoinWire, exactly like core.RunWireServer. Frames (tags in
// program.go, payload layouts in codec.go and PROTOCOL.md) are admitted as
// they arrive and each is decoded and applied to the incremental Server
// where it is admitted, so the masked stage folds uploads into the running
// aggregate while later uploads are still in flight (queued in the
// engine's fan-in), and the recovery stage completes on the first U
// aggregate shares instead of waiting for every survivor. With sessions
// (WireServerConfig.Session / WireClientConfig.Session and the Resume
// flags), consecutive rounds skip the advertise round trip and reuse the
// cached channel secrets and coding matrices.

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/transport"
)

// WireStage identifies a point in the client lifecycle for dropout
// injection.
type WireStage int

// Dropout injection points (the client vanishes before this action).
const (
	WireNoDrop WireStage = iota
	WireDropBeforeMasked
	WireDropBeforeAggShare
)

// WireServerConfig configures the wire server for one round.
type WireServerConfig struct {
	Config        Config
	StageDeadline time.Duration // per-stage collection deadline

	// Session, when non-nil, carries the sealed roster across the rounds
	// that share it; with Resume, the advertise stage is
	// skipped entirely and the round starts from the session's cached
	// roster (the deployment must set the matching flags on every client).
	// Whether the next round may resume is what the re-key handshake
	// (core.RunHandshakeServer) negotiates.
	Session *ServerSession
	Resume  bool
	// Divergent, with Resume, makes the resume partial (core handshake's
	// divergent subset): the advertise stage collects fresh channel keys
	// from exactly this subset, merges them with the cached roster, and
	// broadcasts the merged roster to everyone.
	Divergent []uint64

	// Engine, when non-nil, is an externally owned round engine whose
	// transport fan-in this round collects through. Multi-round deployments
	// must share one engine across the handshake and every round on a
	// connection — a second fan-in would steal frames from the first. nil
	// builds a round-scoped engine (single-round callers).
	Engine *engine.Engine
}

// RunWireServer drives the server side of one LightSecAgg round through
// the shared round engine.
func RunWireServer(ctx context.Context, cfg WireServerConfig, conn transport.ServerConn) ([]field.Element, error) {
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("lightsecagg: resume requires a server session")
	}
	server, err := NewSessionServer(cfg.Config, cfg.Session)
	if err != nil {
		return nil, err
	}
	var sum []field.Element
	program := server.Program(&sum)
	program.Resume, program.Divergent = cfg.Resume, cfg.Divergent
	err = engine.ServeWire(ctx, conn, cfg.Engine, wireCodec, cfg.StageDeadline, program)
	return sum, err
}

// WireClientConfig configures one wire client.
type WireClientConfig struct {
	Config     Config
	ID         uint64
	Input      []field.Element
	DropBefore WireStage
	Rand       io.Reader

	// Session, when non-nil, carries this client's channel key, pairwise
	// secrets, and encoding matrix across the rounds that share it; with
	// Resume, the advertise round trip is skipped and the client resumes
	// on its cached roster (the deployment must set the matching flags on
	// the server).
	Session *Session
	Resume  bool
	// Divergent, with Resume, makes the resume partial: a divergent client
	// advertises its fresh channel key like a re-keyed one; every other
	// client skips advertise but waits for the merged roster broadcast
	// instead of reusing its cached copy.
	Divergent []uint64
}

// RunWireClient drives one client through the round. It returns the
// aggregate (nil when the client drops or is excluded from the result
// broadcast).
func RunWireClient(ctx context.Context, cfg WireClientConfig, conn transport.ClientConn) ([]field.Element, error) {
	if cfg.Resume && cfg.Session == nil {
		return nil, fmt.Errorf("lightsecagg: resume requires a client session")
	}
	client, err := NewSessionClient(cfg.Config, cfg.ID, cfg.Rand, cfg.Session)
	if err != nil {
		return nil, err
	}
	var sum []field.Element
	program := client.Program(cfg.Input, &sum)
	program.Resume, program.Divergent = cfg.Resume, cfg.Divergent
	dropStep := engine.NoDrop
	if cfg.DropBefore != WireNoDrop {
		// WireDropBeforeMasked and WireDropBeforeAggShare are, in order,
		// StageMaskedInput and StageAggShare.
		dropStep = int(cfg.DropBefore) + int(StageShares)
	}
	err = engine.JoinWire(ctx, conn, wireCodec, program, dropStep)
	return sum, err
}
