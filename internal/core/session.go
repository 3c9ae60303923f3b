package core

import (
	"io"
	"slices"
	"sync"

	"repro/internal/lightsecagg"
	"repro/internal/secagg"
	"repro/internal/session"
)

// SessionPool owns the key-agreement sessions RunRound amortizes over: one
// secagg.Session per sampled client plus the server's cache. Within one
// RunRound every chunk shares the pool's sessions, so the m-chunk pipeline
// performs n·k X25519 agreements instead of m·n·k; across RunRound calls
// the pool reuses the same key generation for up to RatchetRounds rounds,
// ratcheting every cached secret one step per round (and skipping the
// advertise stage) instead of re-advertising.
//
// Threat-model gate: cross-round reuse is only sound when the deployment
// accepts that one X25519 key generation serves several rounds. The masks
// of healthy rounds stay independent through the ratchet, but the
// protection is not retroactive: a client that drops in a later round
// hands the server its raw root key (the unchanged private key is
// re-shared every round), from which the server can re-derive that
// client's masks for the earlier rounds of the same key generation and
// unmask its past updates (ARCHITECTURE.md, "Sessions and the key-reuse
// threat model", rule 2). RatchetRounds ≤ 1 confines
// the pool to within-round amortization — the SecAgg+ assumption of one
// key-agreement phase per round — which is the conservative default. The
// pool also regenerates the sessions of clients scheduled to drop
// (tainted before the round runs, so aborted rounds taint too): their
// mask keys may have been reconstructed by the server, so reusing them
// next round would hand the server their future pairwise masks.
type SessionPool struct {
	// RatchetRounds is the number of consecutive rounds one key generation
	// may serve. Values ≤ 1 mean within-round amortization only.
	RatchetRounds int

	mu sync.Mutex
	// One pooled key generation per substrate: rounds pinned to
	// ProtocolLightSecAgg draw from lsa, all others from sa. The reuse
	// policy is the same for both; only secagg's server ever taints
	// (LightSecAgg's never reconstructs client key material, so a dropped
	// client's session stays sound and droppers do not force a re-key).
	sa  generation[*secagg.RoundSessions]
	lsa generation[*lightsecagg.RoundSessions]
}

// NewSessionPool returns a pool that reuses each key generation for up to
// ratchetRounds consecutive rounds (≤ 1: within-round amortization only).
func NewSessionPool(ratchetRounds int) *SessionPool {
	return &SessionPool{RatchetRounds: ratchetRounds}
}

// generation is one pooled key generation: a substrate's round sessions
// (*secagg.RoundSessions or *lightsecagg.RoundSessions), the client set
// they were generated for, and the rounds they have served (0: none pooled
// yet). Taint is read from the sessions' own server state — the store the
// wire re-key handshake consults too, so reconstruction observed by any
// driver (in-process DropSchedule or a real wire dropout) forces the same
// re-key.
type generation[S any] struct {
	sess   S
	ids    []uint64
	rounds int
}

// acquire returns the sessions of generation g for a round over ids plus
// the ratchet step the round must run at (KeyRatchet on secagg; on
// LightSecAgg it only counts the round). It reuses the pooled generation
// when the client set is unchanged, its server carries no dropout taint,
// and it has rounds left; otherwise fresh (the substrate's
// NewRoundSessions) replaces it, at step 0. The step is burned on the
// server state either way.
func acquire[S interface{ ServerState() *session.ServerState }](p *SessionPool, g *generation[S],
	ids []uint64, rand io.Reader, fresh func([]uint64, io.Reader) (S, error)) (S, uint64, error) {

	p.mu.Lock()
	defer p.mu.Unlock()
	if g.rounds == 0 || g.rounds >= max(p.RatchetRounds, 1) || !slices.Equal(g.ids, ids) ||
		g.sess.ServerState().HasTaint() {

		sess, err := fresh(ids, rand)
		if err != nil {
			return sess, 0, err
		}
		*g = generation[S]{sess: sess, ids: slices.Clone(ids)}
	}
	step := uint64(g.rounds)
	g.rounds++
	g.sess.ServerState().MarkRatchetUsed(step)
	return g.sess, step, nil
}

// invalidate marks clients whose sessions must not survive into the next
// round (the server reconstructed — or may have reconstructed — their mask
// keys). The taint is recorded on the pooled secagg server state, the same
// store Server.unmask taints organically when it actually reconstructs a
// key; the next acquire sees it and regenerates every session (a partial
// roster cannot skip the advertise stage anyway).
func (p *SessionPool) invalidate(ids []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sa.rounds > 0 {
		p.sa.sess.ServerState().MarkTainted(ids...)
	}
}
