// Package secagg implements the SecAgg secure-aggregation protocol of
// Bonawitz et al. (CCS 2017) integrated with Dordis's XNoise noise
// enforcement, following the combined protocol of the paper's Figure 5.
//
// The protocol is expressed as two explicit state machines — Client and
// Server — whose per-stage methods consume the previous stage's messages
// and produce the next. A thin orchestrator (Run) drives a full round
// in-process with configurable dropout injection; the same state machines
// are driven over a real transport by package core.
//
// Stages (Fig. 5):
//
//	0 AdvertiseKeys          client → server: c^PK, s^PK [, signature]
//	1 ShareKeys              client → server: encrypted Shamir shares of
//	                         s^SK, b, and the XNoise seeds g_{u,k} (k ≥ 1)
//	2 MaskedInputCollection  client → server: masked (and, with XNoise,
//	                         excessively noised) input y_u
//	3 ConsistencyCheck       [malicious only] signatures over (round, U3)
//	4 Unmasking              client → server: shares unmasking the dead and
//	                         the live, plus the client's own removable
//	                         noise seeds
//	5 ExcessiveNoiseRemoval  [XNoise only] shares of noise seeds of clients
//	                         that died between stages 2 and 4
package secagg

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sig"
	"repro/internal/xnoise"
)

// Stage identifies a protocol stage; used for dropout injection and
// message tagging.
type Stage int

// Protocol stages in execution order.
const (
	StageAdvertiseKeys Stage = iota
	StageShareKeys
	StageMaskedInput
	StageConsistencyCheck
	StageUnmasking
	StageNoiseRemoval
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	names := [...]string{"AdvertiseKeys", "ShareKeys", "MaskedInput",
		"ConsistencyCheck", "Unmasking", "NoiseRemoval"}
	if s < 0 || int(s) >= len(names) {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return names[s]
}

// Config fixes one aggregation round's parameters; all parties must agree
// on it (the server distributes it out of band with the round
// announcement).
type Config struct {
	Round     uint64   // current round index r
	ClientIDs []uint64 // sampled set U, sorted ascending
	Threshold int      // SecAgg threshold t
	Bits      uint     // ring bit width b
	Dim       int      // input vector dimension (padded)

	// Malicious enables the signature machinery of the malicious threat
	// model: signed key advertisements and the ConsistencyCheck stage.
	Malicious bool
	// Registry is the PKI; required when Malicious.
	Registry *sig.Registry

	// XNoise, when non-nil, enables Dordis's add-then-remove noise
	// enforcement with the given plan. The plan's NumClients and Threshold
	// must match this config.
	XNoise *xnoise.Plan
	// Sampler draws noise components; when nil the sampler is selected by
	// NoiseEpoch. Setting it explicitly overrides the epoch (tests,
	// alternative distributions).
	Sampler xnoise.Sampler

	// NoiseEpoch versions the noise draw sequence exactly as MaskEpoch
	// versions mask derivation: epoch 0, the default, is the
	// Poisson-splitting Skellam sampler, epoch 1 CDF inversion throughout
	// (xnoise.SamplerForEpoch). Client noise addition and server removal
	// regenerate the same vectors only under the same epoch, so all parties
	// must agree on it; the handshake's signed offer and commit pin it per
	// round, so resumed peers never mix sequences.
	NoiseEpoch uint64

	// Graph restricts pairwise masking and secret sharing to each client's
	// neighborhood, as in SecAgg+ (Bell et al., CCS 2020). nil means the
	// complete graph — classic SecAgg. The graph must be undirected
	// (symmetric neighborhoods) and every neighborhood must have at least
	// Threshold members including the client itself.
	Graph Graph

	// MaskEpoch separates the pairwise and self masks of the sub-rounds
	// that share one key agreement and one deal — the pipeline chunks of a
	// core.RunRound: epoch e reads window e, keystream bytes
	// [e·2^32, (e+1)·2^32), of each mask's one stream (maskWindow). Epoch 0
	// is byte-identical to the historical (session-less) derivation, so
	// chunk 0 of an amortized pipeline and a plain round coincide. Validate
	// refuses an epoch of 2^32 or more and a Dim whose mask would overrun
	// its window. All parties must agree on it.
	MaskEpoch uint64

	// TranscriptDigests, when true, has both sides record SHA-256 digests
	// of masked inputs for the verifiable-transcript layer: the server
	// captures each arrival's digest in AddMasked (before it folds the
	// vector into the running sum) and the client records its own upload's
	// digest in MaskedInput. Off by default — the digest pass is one SHA-256 over
	// the dominant payload per client, so the classic hot path pays
	// nothing. All parties need not agree on it (it changes no wire
	// bytes), but a client can only verify an inclusion proof if its own
	// flag was set. See internal/transcript.
	TranscriptDigests bool

	// KeyRatchet is the number of dh.Ratchet steps applied to every
	// pairwise shared secret (mask and channel) before use. Drivers that
	// reuse key agreements across consecutive rounds advance it by one per
	// round so no two rounds mask with the same seeds; 0 (fresh keys every
	// round — the classic threat model) leaves the raw agreement output,
	// byte-identical to the historical derivation. All parties must agree
	// on it.
	KeyRatchet uint64

	// nbrs memoizes the per-id neighbor sets of Graph, built in one map
	// pass by Validate and shared by every copy of a validated Config (map
	// headers travel with the copy). Read-only after Validate.
	nbrs map[uint64][]uint64
}

// Graph describes the communication topology for masking and sharing.
type Graph interface {
	// Neighbors returns the ids adjacent to id, excluding id itself.
	Neighbors(id uint64) []uint64
}

// Validate checks config consistency. It also memoizes the graph's
// per-id neighbor sets (one Neighbors call per client) so the symmetry
// check runs in O(n·k) set lookups instead of O(n·k²) Neighbors calls, and
// neighborhood() reuses the same sets afterwards.
func (c *Config) Validate() error {
	n := len(c.ClientIDs)
	if n < 2 {
		return fmt.Errorf("secagg: need at least 2 clients, got %d", n)
	}
	seen := make(map[uint64]struct{}, n)
	for i, id := range c.ClientIDs {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("secagg: duplicate client id %d", id)
		}
		seen[id] = struct{}{}
		if i > 0 && c.ClientIDs[i-1] >= id {
			return fmt.Errorf("secagg: client ids must be sorted ascending")
		}
	}
	if c.Threshold < 2 || c.Threshold > n {
		return fmt.Errorf("secagg: threshold %d out of [2, %d]", c.Threshold, n)
	}
	// Malicious security requires 2t > |U| (+ |C∩U|, unknowable here);
	// enforce the base bound 2t > |U| as the paper's footnote 3 prescribes.
	if c.Malicious && 2*c.Threshold <= n {
		return fmt.Errorf("secagg: malicious mode needs 2t > |U| (t=%d, |U|=%d)", c.Threshold, n)
	}
	if c.Malicious && c.Registry == nil {
		return fmt.Errorf("secagg: malicious mode requires a PKI registry")
	}
	if c.Bits < 2 || c.Bits > 63 {
		return fmt.Errorf("secagg: bits %d out of [2,63]", c.Bits)
	}
	if c.Dim <= 0 {
		return fmt.Errorf("secagg: dim must be positive, got %d", c.Dim)
	}
	if c.MaskEpoch >= 1<<(64-maskWindowBits) {
		return fmt.Errorf("secagg: mask epoch %d has no keystream window", c.MaskEpoch)
	}
	if ring.MaskBytes(c.Bits, c.Dim) > 1<<maskWindowBits {
		return fmt.Errorf("secagg: a %d-coordinate mask overruns its %d-byte keystream window", c.Dim, uint64(1)<<maskWindowBits)
	}
	if c.NoiseEpoch > xnoise.MaxNoiseEpoch {
		return fmt.Errorf("secagg: unknown noise epoch %d (max %d)", c.NoiseEpoch, xnoise.MaxNoiseEpoch)
	}
	if c.XNoise != nil {
		if err := c.XNoise.Validate(); err != nil {
			return err
		}
		if c.XNoise.NumClients != n {
			return fmt.Errorf("secagg: XNoise plan for %d clients, config has %d", c.XNoise.NumClients, n)
		}
		if c.XNoise.Threshold != c.Threshold {
			return fmt.Errorf("secagg: XNoise threshold %d != config threshold %d", c.XNoise.Threshold, c.Threshold)
		}
	}
	if c.Graph != nil && !c.nbrsCover(seen) {
		// One Neighbors call per client; membership sets make the symmetry
		// check a hash lookup per edge instead of a linear scan over a
		// freshly allocated neighbor list.
		nbrs := make(map[uint64][]uint64, n)
		sets := make(map[uint64]map[uint64]struct{}, n)
		for _, id := range c.ClientIDs {
			lst := c.Graph.Neighbors(id)
			if len(lst)+1 < c.Threshold {
				return fmt.Errorf("secagg: neighborhood of %d has %d members < t=%d",
					id, len(lst)+1, c.Threshold)
			}
			set := make(map[uint64]struct{}, len(lst))
			for _, v := range lst {
				if v == id {
					return fmt.Errorf("secagg: client %d lists itself as neighbor", id)
				}
				if _, ok := seen[v]; !ok {
					return fmt.Errorf("secagg: client %d has unknown neighbor %d", id, v)
				}
				set[v] = struct{}{}
			}
			nbrs[id] = lst
			sets[id] = set
		}
		for _, id := range c.ClientIDs {
			for _, v := range nbrs[id] {
				if _, ok := sets[v][id]; !ok {
					return fmt.Errorf("secagg: graph not symmetric: %d→%d", id, v)
				}
			}
		}
		c.nbrs = nbrs
	}
	return nil
}

// nbrsCover reports whether the memoized neighbor map already covers
// exactly the given client set, in which case a re-Validate (every client
// and server constructor validates its own Config copy) skips rebuilding
// the memo and re-running the O(n·k) graph pass — the memo only exists if
// a previous Validate of this very Config value passed. A caller that
// swaps the Graph on an already-validated copy without clearing ClientIDs
// is outside the supported use of the type.
func (c *Config) nbrsCover(ids map[uint64]struct{}) bool {
	if c.nbrs == nil || len(c.nbrs) != len(ids) {
		return false
	}
	for id := range ids {
		if _, ok := c.nbrs[id]; !ok {
			return false
		}
	}
	return true
}

// neighborhood returns the neighbor set of id under the configured graph
// (all other clients when Graph is nil), excluding id itself. After
// Validate the graph sets come from the memoized map; callers must treat
// the returned slice as read-only.
func (c Config) neighborhood(id uint64) []uint64 {
	if c.Graph == nil {
		out := make([]uint64, 0, len(c.ClientIDs)-1)
		for _, v := range c.ClientIDs {
			if v != id {
				out = append(out, v)
			}
		}
		return out
	}
	if lst, ok := c.nbrs[id]; ok {
		return lst
	}
	return append([]uint64(nil), c.Graph.Neighbors(id)...)
}

// UnmaskQuorum is the count the unmask predicate (Server.UnmaskQuorumMet,
// installed as engine.Stage.QuorumMet) reduces to, or 0 when no count
// expresses it. Under the complete graph (classic SecAgg) every responder
// holds a share of every reconstruction cohort, so the predicate fires at
// exactly the t-th response — the Shamir threshold. Two configurations
// have no such count:
//
//   - SecAgg+ graphs: responders only hold shares for their
//     neighborhood, so t global responses do not guarantee t shares per
//     reconstruction cohort; the predicate fires the moment every cohort
//     holds t shares, whatever the response count.
//   - XNoise rounds: cutting U5 to exactly t would make U3\U5 non-empty
//     every round — forcing the stage-5 noise-seed round trip even with
//     zero real stragglers — and stage 5 then needs a response from
//     every one of the t quorum members (|U6| ≥ t out of |U5| = t), so a
//     single stage-5 laggard would abort a round the wait-all collection
//     tolerates. Waiting out stage 4 also collects laggards' own noise
//     seeds directly, which is strictly more robust, so drivers install
//     no predicate there.
//
// Cutting at the quorum reclassifies slow-but-alive survivors into
// U3\U5; their self-seed shares still reconstruct from the quorum's
// responses — the deadline-based collection trade of the paper's §2.1.
func (c Config) UnmaskQuorum() int {
	if c.Graph != nil || c.XNoise != nil {
		return 0
	}
	return c.Threshold
}

// sampler returns the explicitly configured noise sampler, or the frozen
// sampler of the config's NoiseEpoch (Validate rejects unknown epochs).
func (c Config) sampler() xnoise.Sampler {
	if c.Sampler != nil {
		return c.Sampler
	}
	return xnoise.SamplerForEpoch(c.NoiseEpoch)
}

// indexOf returns the 1-based Shamir abscissa index of a client id within
// the sampled set (its position in ClientIDs plus one).
func (c Config) indexOf(id uint64) (int, error) {
	for i, cid := range c.ClientIDs {
		if cid == id {
			return i + 1, nil
		}
	}
	return 0, fmt.Errorf("secagg: client %d not in sampled set", id)
}
