package core

// SessionPool asks RunRound to amortize X25519 key agreement over a round's
// chunks: the round builds one secagg.RoundSessions (or
// lightsecagg.RoundSessions) and every chunk shares it, so the m-chunk
// pipeline performs n·k agreements instead of m·n·k. The key generation
// lives for exactly that one RunRound call; the next call on the same pool
// generates and agrees afresh. Resuming a key generation across rounds is
// decided in one place, the signed re-key handshake on the wire
// (HandshakeConfig.KeyRounds), which enforces the threat model of a longer
// lifetime. ARCHITECTURE.md states that model in
// "Sessions and the key-reuse threat model".
type SessionPool struct {
	keyRounds int // the key-generation lifetime in rounds; RoundConfig.Validate refuses more than 1
}

// NewSessionPool returns a pool whose key generations live keyRounds
// rounds. In process that lifetime is one round, so RoundConfig.Validate
// refuses a pool built with keyRounds > 1.
func NewSessionPool(keyRounds int) *SessionPool {
	return &SessionPool{keyRounds: keyRounds}
}
