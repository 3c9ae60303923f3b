package secagg

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Server is the aggregator's state machine for one round. Its collection
// surface is incremental: AddAdvertise/AddShare/AddMasked/AddConsistency/
// AddUnmask/AddNoiseShare ingest one message on arrival (decoding, share
// indexing, and partial masked-input accumulation happen immediately),
// and the per-stage Seal* methods close the stage, enforce the threshold,
// and emit the next broadcast. This is what the streaming round engine
// drives: by the time the last message of a stage arrives, the
// per-message work is already done and Seal is an O(1) (or O(t)) tail.
//
// Methods must be called in stage order. A Server is not safe for
// concurrent use; the round engine calls Add* from one goroutine, in
// admission order (engine.Stage.Apply contract).
type Server struct {
	cfg Config

	// session caches reconstructed mask keys and pairwise secrets across
	// the sub-rounds that share it (key-agreement amortization). Never nil:
	// a server constructed without one gets a throwaway session that lives
	// for the round, the classic flow.
	session *ServerSession

	roster map[uint64]AdvertiseMsg
	u1     []uint64
	u2     []uint64
	u3     []uint64
	u4     []uint64
	u5     []uint64

	outbox map[uint64][]EncryptedShareMsg // recipient → relayed ciphertexts
	u2set  map[uint64]struct{}            // stage-1 senders
	sigs   map[uint64][]byte              // stage-3 signatures
	u4set  map[uint64]struct{}

	// Streaming masked-input aggregation: every arrival folds into
	// maskedSum before AddMasked returns.
	u3set     map[uint64]struct{}
	maskedSum ring.Vector
	// maskedDigests records each arrival's transcript digest (only with
	// cfg.TranscriptDigests).
	maskedDigests map[uint64][32]byte

	// Unmasking state.
	u5set          map[uint64]struct{}
	maskKeyShares  map[uint64][][numKeyChunks]shamir.Share // dropped v → collected bundles
	selfSeedShares map[uint64][]shamir.Share               // live v → collected shares
	noiseSeeds     map[uint64]map[int]field.Element        // client → k → seed
	nsSenders      map[uint64]struct{}                     // stage-5 responders
	noiseShares    map[uint64]map[int][]shamir.Share       // U3\U5 client → k → shares

	// Per-cohort quorum tracking (UnmaskQuorumMet): outstanding share
	// deficits per reconstruction cohort, seeded at the first AddUnmask
	// and decremented as shares arrive.
	selfNeed    map[uint64]int // live u → self-seed shares still needed
	keyNeed     map[uint64]int // dropped v → mask-key bundles still needed
	cohortShort int            // cohorts still below the threshold

	sum ring.Vector

	// The share stage's uploads in admission order, and the step's kept
	// routing while every upload so far is byte-equal to its kept one
	// (AddShare); those uploads are routed only if one differs.
	uploads []upload
	kept    *routing

	// Scratch a kept server reuses sub-round after sub-round: the slabs
	// the unmask stage's share lists are cut from (sized by initCohorts),
	// and unmask's mask tasks, their resolved masks and the dropped
	// clients' keys.
	selfSlab []shamir.Share
	keySlab  [][numKeyChunks]shamir.Share
	tasks    []maskTask
	masks    []ring.Mask
	keys     map[uint64]*dh.KeyPair

	// The stage table (Program), built once, and the walk state its rows
	// read.
	steps  []engine.ServerStep
	quorum func() bool // UnmaskQuorumMet, bound once
	walk   serverWalk
}

// upload is one sender's stage-1 list.
type upload struct {
	from uint64
	cts  []EncryptedShareMsg
}

// NewSessionServer constructs the aggregator for a round. sess is an
// optional key-agreement session: when non-nil, reconstructed mask keys
// and the pairwise secrets they produce are cached across the sub-rounds
// sharing the session, and a cached roster lets InstallRoster skip the
// advertise stage.
func NewSessionServer(cfg Config, sess *ServerSession) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newServer(cfg, sess), nil
}

// newServer is NewSessionServer for a cfg the caller has validated.
func newServer(cfg Config, sess *ServerSession) *Server {
	if sess == nil {
		sess = NewServerSession()
	}
	return &Server{cfg: cfg, session: sess}
}

// aim readies a kept server for another sub-round of cfg on sess
// (RunWithSessions): every stage map is emptied in place — clear keeps its
// buckets — and every other per-round field starts zero, so nothing of the
// last sub-round is read again; the stage table and the scratch slices
// carry over. The last sub-round's sum was handed over (Finalize), so the
// next AddMasked makes a new one.
func (s *Server) aim(cfg Config, sess *ServerSession) {
	*s = Server{cfg: cfg, session: sess,
		roster: s.roster, outbox: s.outbox, u2set: s.u2set, sigs: s.sigs, u4set: s.u4set,
		u3set: s.u3set, maskedDigests: s.maskedDigests,
		u5set: s.u5set, maskKeyShares: s.maskKeyShares, selfSeedShares: s.selfSeedShares,
		noiseSeeds: s.noiseSeeds, nsSenders: s.nsSenders, noiseShares: s.noiseShares,
		selfNeed: s.selfNeed, keyNeed: s.keyNeed,
		uploads: s.uploads[:0], selfSlab: s.selfSlab, keySlab: s.keySlab, tasks: s.tasks, masks: s.masks,
		keys: s.keys, steps: s.steps, quorum: s.quorum}
	clear(s.roster)
	clear(s.outbox)
	clear(s.u2set)
	clear(s.sigs)
	clear(s.u4set)
	clear(s.u3set)
	clear(s.maskedDigests)
	clear(s.u5set)
	clear(s.maskKeyShares)
	clear(s.selfSeedShares)
	clear(s.noiseSeeds)
	clear(s.nsSenders)
	clear(s.noiseShares)
	clear(s.selfNeed)
	clear(s.keyNeed)
	clear(s.keys)
}

// InstallRoster seeds the stage-0 state from a cached roster instead of
// collecting advertisements — the session-aware skippable advertise stage.
// The roster must come from a previously sealed advertise stage over the
// same client set and key generation.
func (s *Server) InstallRoster(roster []AdvertiseMsg) error {
	if len(s.roster) != 0 {
		return fmt.Errorf("secagg: advertise stage already started")
	}
	if s.roster == nil {
		s.roster = make(map[uint64]AdvertiseMsg, len(roster))
	}
	for _, m := range roster {
		if _, err := s.cfg.indexOf(m.From); err != nil {
			return err
		}
		if _, dup := s.roster[m.From]; dup {
			return fmt.Errorf("secagg: duplicate roster entry for %d", m.From)
		}
		s.roster[m.From] = m
	}
	if len(s.roster) < s.cfg.Threshold {
		return fmt.Errorf("secagg: |U1|=%d < t=%d, aborting", len(s.roster), s.cfg.Threshold)
	}
	s.u1 = transport.SortedKeys(s.roster)
	return nil
}

// AddAdvertise ingests one stage-0 advertisement on arrival.
func (s *Server) AddAdvertise(m AdvertiseMsg) error {
	if s.roster == nil {
		s.roster = make(map[uint64]AdvertiseMsg, len(s.cfg.ClientIDs))
	}
	if _, err := s.cfg.indexOf(m.From); err != nil {
		return err
	}
	if _, dup := s.roster[m.From]; dup {
		return fmt.Errorf("secagg: duplicate advertisement from %d", m.From)
	}
	s.roster[m.From] = m
	return nil
}

// SealAdvertise closes stage 0 and returns the roster broadcast for stage
// 1. Fewer than t advertisements abort the round.
func (s *Server) SealAdvertise() ([]AdvertiseMsg, error) {
	if len(s.roster) < s.cfg.Threshold {
		return nil, fmt.Errorf("secagg: |U1|=%d < t=%d, aborting", len(s.roster), s.cfg.Threshold)
	}
	s.u1 = transport.SortedKeys(s.roster)
	out := make([]AdvertiseMsg, 0, len(s.u1))
	for _, id := range s.u1 {
		out = append(out, s.roster[id])
	}
	return out, nil
}

// AddShare ingests one sender's stage-1 ciphertext list on arrival,
// routing each ciphertext to its recipient's outbox. At a ratchet step
// whose share stage the server's session already routed, an upload
// byte-equal to the one that sender made then is held back instead: if
// every upload of the stage is, SealShares hands out the kept deliveries,
// which routing them would rebuild; the first upload that is not routes
// every held one, in admission order, and itself, as routing on arrival
// would have.
func (s *Server) AddShare(sender uint64, cts []EncryptedShareMsg) error {
	if s.u2set == nil {
		s.outbox = make(map[uint64][]EncryptedShareMsg)
		s.u2set = make(map[uint64]struct{}, len(s.u1))
		s.uploads = make([]upload, 0, len(s.u1))
	}
	if len(s.uploads) == 0 {
		s.kept = s.session.routingAt(s.cfg.KeyRatchet)
	}
	if _, inU1 := s.roster[sender]; !inU1 {
		return fmt.Errorf("secagg: shares from client %d outside U1", sender)
	}
	if _, dup := s.u2set[sender]; dup {
		return fmt.Errorf("secagg: duplicate share list from %d", sender)
	}
	for _, ct := range cts {
		if ct.From != sender {
			return fmt.Errorf("secagg: ciphertext spoofing: %d claimed by %d", ct.From, sender)
		}
	}
	s.u2set[sender] = struct{}{}
	s.uploads = append(s.uploads, upload{from: sender, cts: cts})
	if s.kept != nil {
		if first, ok := s.kept.uploads[sender]; ok && sameUpload(cts, first) {
			return nil
		}
		s.routeHeld(len(s.uploads) - 1)
	}
	s.route(cts)
	return nil
}

// routeHeld routes the first n uploads, which AddShare held back against
// the kept routing, and drops it.
func (s *Server) routeHeld(n int) {
	for _, u := range s.uploads[:n] {
		s.route(u.cts)
	}
	s.kept = nil
}

// route appends each ciphertext of one upload to its recipient's outbox.
func (s *Server) route(cts []EncryptedShareMsg) {
	for _, ct := range cts {
		s.outbox[ct.To] = appendSized(s.outbox[ct.To], ct, s.neighbors(ct.To))
	}
}

// sameUpload reports whether two share uploads are byte-equal, entry for
// entry.
func sameUpload(a, b []EncryptedShareMsg) bool {
	return slices.EqualFunc(a, b, func(x, y EncryptedShareMsg) bool {
		return x.From == y.From && x.To == y.To && bytes.Equal(x.Ciphertext, y.Ciphertext)
	})
}

// neighbors is how many peers v shares with, which bounds the lists the
// server keeps per target: the rest of U1 under the complete graph
// (counted, not listed), else v's neighbourhood. An id outside U1 gets 0,
// so a list addressed to no real party is not sized.
func (s *Server) neighbors(v uint64) int {
	if _, inU1 := s.roster[v]; !inU1 {
		return 0
	}
	if s.cfg.Graph == nil {
		return len(s.roster) - 1
	}
	return len(s.cfg.nbrs[v])
}

// appendSized appends x to list, making the list with room for n when it
// is nil.
func appendSized[T any](list []T, x T, n int) []T {
	if list == nil {
		list = make([]T, 0, n)
	}
	return append(list, x)
}

// SealShares closes stage 1: the senders form U2, and each U2 recipient's
// delivery is filtered to ciphertexts from U2 members (a recipient cannot
// use shares from clients that never sent theirs). When every upload of
// the stage was held back against the step's kept routing (AddShare) —
// the same senders, each byte-equal — the delivery is the kept one;
// otherwise the server's session keeps this stage's routing for the
// step's later sub-rounds. The deliveries are read, never written, by
// their recipients, and hold until the session's next share stage that
// routes afresh.
func (s *Server) SealShares() (map[uint64][]EncryptedShareMsg, error) {
	if len(s.u2set) < s.cfg.Threshold {
		return nil, fmt.Errorf("secagg: |U2|=%d < t=%d, aborting", len(s.u2set), s.cfg.Threshold)
	}
	s.u2 = transport.SortedKeys(s.u2set)
	if s.kept != nil {
		if len(s.uploads) == len(s.kept.uploads) {
			return s.kept.deliveries, nil
		}
		s.routeHeld(len(s.uploads))
	}
	r := s.session.takeRouting()
	r.step = s.cfg.KeyRatchet
	deliver := r.deliveries
	for _, recipient := range s.u2 {
		// Filtered in place: the outbox is read no more.
		box := s.outbox[recipient]
		list := box[:0]
		for _, ct := range box {
			if _, ok := s.u2set[ct.From]; ok {
				list = append(list, ct)
			}
		}
		deliver[recipient] = list
	}
	for _, u := range s.uploads {
		r.uploads[u.from] = u.cts
	}
	s.session.keepRouting(r)
	return deliver, nil
}

// AddMasked ingests one stage-2 masked input on arrival: it validates the
// message, digests it and folds it into the running partial aggregate
// before it returns, so sealing the stage is a threshold check and the
// server never holds a per-client vector. It retains nothing of m — the
// wire link hands it the frame's own bytes (m.YLE) and releases the frame
// the moment this returns; a caller of the words form (m.Y) may likewise
// reuse its vector at once.
func (s *Server) AddMasked(m MaskedInputMsg) error {
	if s.u3set == nil {
		s.u3set = make(map[uint64]struct{}, len(s.u2))
	}
	if s.maskedSum.Data == nil {
		s.maskedSum = ring.NewVector(s.cfg.Bits, s.cfg.Dim)
	}
	if _, inU2 := s.u2set[m.From]; !inU2 {
		return fmt.Errorf("secagg: masked input from %d outside U2", m.From)
	}
	if _, dup := s.u3set[m.From]; dup {
		return fmt.Errorf("secagg: duplicate masked input from %d", m.From)
	}
	dim := len(m.Y)
	if m.YLE != nil {
		if m.Y != nil || len(m.YLE)%8 != 0 {
			return fmt.Errorf("secagg: masked input from %d is malformed", m.From)
		}
		dim = len(m.YLE) / 8
	}
	if dim != s.cfg.Dim {
		return fmt.Errorf("secagg: masked input from %d has dim %d, want %d", m.From, dim, s.cfg.Dim)
	}
	s.u3set[m.From] = struct{}{}
	if s.cfg.TranscriptDigests {
		if s.maskedDigests == nil {
			s.maskedDigests = make(map[uint64][32]byte, len(s.u2))
		}
		if m.YLE != nil {
			s.maskedDigests[m.From] = transcript.DigestLE(m.YLE)
		} else {
			s.maskedDigests[m.From] = transcript.Digest(m.Y)
		}
	}
	if m.YLE != nil {
		return s.maskedSum.AddBytesLE(m.YLE)
	}
	return s.maskedSum.AddInPlace(ring.Vector{Bits: s.cfg.Bits, Data: m.Y})
}

// MaskedDigests returns the transcript digests of every masked input
// ingested so far, as id-sorted leaves for Recorder.BuildRound. Empty unless
// cfg.TranscriptDigests; drivers read it after SealMasked so the digest
// set matches U3.
func (s *Server) MaskedDigests() []transcript.InputDigest {
	if len(s.maskedDigests) == 0 {
		return nil
	}
	out := make([]transcript.InputDigest, 0, len(s.maskedDigests))
	for id, d := range s.maskedDigests {
		out = append(out, transcript.InputDigest{ID: id, Digest: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SealMasked closes stage 2: the senders form U3.
func (s *Server) SealMasked() ([]uint64, error) {
	if len(s.u3set) < s.cfg.Threshold {
		return nil, fmt.Errorf("secagg: |U3|=%d < t=%d, aborting", len(s.u3set), s.cfg.Threshold)
	}
	s.u3 = transport.SortedKeys(s.u3set)
	return append([]uint64(nil), s.u3...), nil
}

// AddConsistency ingests one stage-3 signature on arrival.
func (s *Server) AddConsistency(m ConsistencyMsg) error {
	if s.sigs == nil {
		s.sigs = make(map[uint64][]byte, len(s.u3))
		s.u4set = make(map[uint64]struct{}, len(s.u3))
	}
	if _, inU3 := s.u3set[m.From]; !inU3 {
		return fmt.Errorf("secagg: consistency from %d outside U3", m.From)
	}
	if _, dup := s.u4set[m.From]; dup {
		return fmt.Errorf("secagg: duplicate consistency from %d", m.From)
	}
	s.u4set[m.From] = struct{}{}
	s.sigs[m.From] = m.Signature
	return nil
}

// SealConsistency closes stage 3 and returns the stage-4 unmask request.
func (s *Server) SealConsistency() (UnmaskRequest, error) {
	if len(s.u4set) < s.cfg.Threshold {
		return UnmaskRequest{}, fmt.Errorf("secagg: |U4|=%d < t=%d, aborting", len(s.u4set), s.cfg.Threshold)
	}
	s.u4 = transport.SortedKeys(s.u4set)
	req := UnmaskRequest{
		U3: append([]uint64(nil), s.u3...),
		U4: append([]uint64(nil), s.u4...),
	}
	if s.cfg.Registry != nil {
		req.Signatures = make(map[uint64][]byte, len(s.sigs))
		for id, sg := range s.sigs {
			req.Signatures[id] = sg
		}
	}
	return req, nil
}

// AddUnmask ingests one stage-4 response on arrival, indexing its share
// bundles by target client so reconstruction cohorts are ready at Seal.
func (s *Server) AddUnmask(m UnmaskMsg) error {
	if len(s.u5set) == 0 {
		if s.u5set == nil {
			s.u5set = make(map[uint64]struct{}, len(s.u4))
			s.maskKeyShares = make(map[uint64][][numKeyChunks]shamir.Share)
			s.selfSeedShares = make(map[uint64][]shamir.Share)
			s.noiseSeeds = make(map[uint64]map[int]field.Element)
		}
		s.initCohorts()
	}
	if _, inU4 := s.u4set[m.From]; !inU4 {
		return fmt.Errorf("secagg: unmask response from %d outside U4", m.From)
	}
	if _, dup := s.u5set[m.From]; dup {
		return fmt.Errorf("secagg: duplicate unmask response from %d", m.From)
	}
	s.u5set[m.From] = struct{}{}
	// A target's shares come from its neighbours, and a live target's
	// also from itself.
	for v, sh := range m.MaskKeyShares {
		s.maskKeyShares[v] = appendCut(&s.keySlab, s.maskKeyShares[v], sh, s.neighbors(v))
		s.cohortFill(s.keyNeed, v)
	}
	for v, sh := range m.SelfSeedShares {
		s.selfSeedShares[v] = appendCut(&s.selfSlab, s.selfSeedShares[v], sh, s.neighbors(v)+1)
		s.cohortFill(s.selfNeed, v)
	}
	if m.OwnNoiseSeeds != nil {
		seeds := make(map[int]field.Element, len(m.OwnNoiseSeeds))
		for k, g := range m.OwnNoiseSeeds {
			seeds[k] = g
		}
		s.noiseSeeds[m.From] = seeds
	}
	return nil
}

// initCohorts seeds the per-cohort deficit counters consulted by
// UnmaskQuorumMet: every live client's self-seed needs t shares, and
// every dropped client's mask key needs t bundles unless the session
// already holds the verified key from an earlier sub-round. It sizes the
// share slabs for every list an honest stage fills: a live client's from
// its neighbours and itself, a dropped client's from its neighbours.
func (s *Server) initCohorts() {
	if s.selfNeed == nil {
		s.selfNeed = make(map[uint64]int, len(s.u3))
		s.keyNeed = make(map[uint64]int)
	}
	clear(s.selfNeed)
	clear(s.keyNeed)
	selfShares, keyShares := 0, 0
	for _, u := range s.u3 {
		s.selfNeed[u] = s.cfg.Threshold
		selfShares += s.neighbors(u) + 1
	}
	for _, v := range s.u2 {
		if slices.Contains(s.u3, v) {
			continue
		}
		keyShares += s.neighbors(v)
		if s.session.key(s.roster[v].MaskPub) != nil {
			continue
		}
		s.keyNeed[v] = s.cfg.Threshold
	}
	s.cohortShort = len(s.selfNeed) + len(s.keyNeed)
	s.selfSlab = emptySlab(s.selfSlab, selfShares)
	s.keySlab = emptySlab(s.keySlab, keyShares)
}

// emptySlab returns slab emptied, or a new one if it has no room for n.
func emptySlab[T any](slab []T, n int) []T {
	if cap(slab) < n {
		return make([]T, 0, n)
	}
	return slab[:0]
}

// appendCut appends x to list, cutting the list from slab with room for n
// when it is nil — made instead, when the slab is spent. A list never
// grows into its neighbour in the slab: append past n moves it out.
func appendCut[T any](slab *[]T, list []T, x T, n int) []T {
	if list == nil {
		if l := len(*slab); cap(*slab)-l >= n {
			*slab = (*slab)[:l+n]
			list = (*slab)[l : l : l+n]
		} else {
			list = make([]T, 0, n)
		}
	}
	return append(list, x)
}

// cohortFill decrements one cohort's deficit after a share arrival.
func (s *Server) cohortFill(need map[uint64]int, v uint64) {
	n, ok := need[v]
	if !ok {
		return
	}
	if n--; n == 0 {
		delete(need, v)
		s.cohortShort--
	} else {
		need[v] = n
	}
}

// UnmaskQuorumMet reports whether the stage-4 responses collected so far
// suffice to seal: t responders overall and every reconstruction cohort —
// each live client's self-seed, each dropped client's mask key — holds
// its t shares. It is the unmask stage's quorum (engine.Stage.QuorumMet)
// on every round without XNoise: under the complete graph it fires at
// the t-th response, and under a sparse SecAgg+ graph — where t *global*
// responses do not imply t shares per cohort — the moment the last short
// cohort fills. XNoise rounds must keep waiting all-of-N (see
// Config.UnmaskQuorum); drivers do not install the predicate there.
func (s *Server) UnmaskQuorumMet() bool {
	return s.u5set != nil && len(s.u5set) >= s.cfg.Threshold && s.cohortShort == 0
}

// SealUnmask closes stage 4 (the responders form U5), unmasks the
// aggregate, and returns the stage-5 request (XNoise) or nil when no
// stage 5 is needed.
func (s *Server) SealUnmask() (*NoiseShareRequest, error) {
	if len(s.u5set) < s.cfg.Threshold {
		return nil, fmt.Errorf("secagg: |U5|=%d < t=%d, aborting", len(s.u5set), s.cfg.Threshold)
	}
	s.u5 = transport.SortedKeys(s.u5set)

	if err := s.unmask(); err != nil {
		return nil, err
	}

	if s.cfg.XNoise == nil {
		return nil, nil
	}
	// Stage 5 is needed when some aggregated client died before reporting
	// its seeds (U3 \ U5 ≠ ∅).
	if len(s.u3) == len(s.u5) {
		return nil, nil
	}
	return &NoiseShareRequest{U5: append([]uint64(nil), s.u5...)}, nil
}

// unmask computes z = Σ_{u∈U3} y_u − Σ_{u∈U3} p_u + Σ_{u∈U3, v∈U2\U3} p_{v,u}.
//
// The mask removals are independent and commutative, so the expansion work
// fans out across a bounded worker pool (applyMaskTasks); the self-mask
// seeds b_u are recovered with one batched Lagrange pass per survivor
// cohort rather than one quadratic interpolation per client.
func (s *Server) unmask() error {
	// Σ_{u∈U3} y_u was accumulated incrementally as masked inputs arrived
	// (AddMasked); only the mask removal remains.
	z := s.maskedSum

	// Reconstruct the self-mask seeds of live clients in one batch per
	// abscissa cohort — all but those whose shares are, byte for byte, the
	// ones the session reconstructed a seed from earlier in the step.
	var fresh []uint64
	for _, u := range s.u3 {
		if s.session.keptSelf(u, s.cfg.KeyRatchet, s.cfg.Threshold, s.selfSeedShares[u]) == nil {
			fresh = append(fresh, u)
		}
	}
	if len(fresh) > 0 {
		selfSeeds, err := reconstructGrouped(fresh, func(u uint64) []shamir.Share {
			return s.selfSeedShares[u]
		}, s.cfg.Threshold)
		if err != nil {
			return fmt.Errorf("secagg: reconstructing self seeds: %w", err)
		}
		for _, u := range fresh {
			s.session.keepSelf(u, selfSeeds[u], s.cfg.KeyRatchet, s.cfg.Threshold, s.selfSeedShares[u])
		}
	}

	// Remove self masks of live clients via reconstructed b_u; every mask
	// is read from this sub-round's window of its stream.
	tasks := s.tasks[:0]
	for _, u := range s.u3 {
		tasks = append(tasks, maskTask{sign: -1, id: u, self: true})
	}
	// Remove the unpaired pairwise masks of dropped clients v ∈ U2\U3. Key
	// reconstruction and verification run inline (one per dropped client,
	// skipped entirely when the session already holds the verified key);
	// the per-neighbor key agreements and mask expansions — the bulk of the
	// work — run on the workers, hitting the session cache when one is live.
	if s.keys == nil {
		s.keys = make(map[uint64]*dh.KeyPair) // dropped v → its mask key
	}
	keys := s.keys
	for _, v := range s.u2 {
		if slices.Contains(s.u3, v) {
			continue
		}
		advPub := s.roster[v].MaskPub
		// The server is about to hold v's raw mask key: taint v in the
		// session so no later round resumes on a key generation whose
		// future pairwise masks this server can now derive.
		kp := s.session.taintKey(v, advPub)
		if kp == nil {
			bundles := s.maskKeyShares[v]
			keyBytes, err := reconstructKey(bundles, s.cfg.Threshold)
			if err != nil {
				return fmt.Errorf("secagg: reconstructing s^SK_%d: %w", v, err)
			}
			if kp, err = dh.FromPrivateBytes(keyBytes); err != nil {
				return err
			}
			// Sanity: the rebuilt key must match the advertised public key —
			// detects clients that shared a wrong key (malicious behavior).
			if !bytes.Equal(kp.PublicBytes(), advPub) {
				return fmt.Errorf("secagg: reconstructed key of %d does not match advertisement", v)
			}
			s.session.storeKey(advPub, kp)
		}
		keys[v] = kp
		// Only v's neighbors masked with v: client u added γ_{u,v}·PRG;
		// cancel it.
		vNbrs := s.cfg.neighborhood(v)
		for _, u := range s.u3 {
			if _, ok := slices.BinarySearch(vNbrs, u); ok {
				tasks = append(tasks, maskTask{sign: -pairMaskSign(u, v), id: u, peer: v})
			}
		}
	}
	s.tasks = tasks
	masks, err := applyMaskTasks(z, s.masks, tasks, s.cfg.maskWindow(), func(t maskTask) (*prg.Stream, error) {
		if t.self {
			return s.session.selfStream(t.id), nil
		}
		ps, err := s.session.pairStream(keys[t.peer], s.roster[t.id].MaskPub, s.cfg.KeyRatchet)
		if err != nil {
			return nil, fmt.Errorf("secagg: mask key agreement %d↔%d: %w", t.id, t.peer, err)
		}
		return ps, nil
	})
	if err != nil {
		return err
	}
	s.masks, s.sum = masks, z
	return nil
}

// pairMaskSign returns γ_{u,v} (+1 iff u > v), mirroring the client's mask
// sign without performing the key agreement.
func pairMaskSign(u, v uint64) int8 {
	if u < v {
		return -1
	}
	return 1
}

// ErrNoiseComponents refuses a stage-5 response whose shares for a target
// do not name exactly the removable components, RemovalComponents(|D|):
// what an honest RevealNoiseShares sends, and what SealNoiseShares
// reconstructs in one batch per target.
var ErrNoiseComponents = errors.New("secagg: noise shares do not name the removable components")

// AddNoiseShare ingests one stage-5 response on arrival, indexing the
// shares by target client and component. A response it refuses leaves no
// trace: an unsolicited target, or a target whose components are not
// exactly the removable ones (ErrNoiseComponents), refuses all of it.
func (s *Server) AddNoiseShare(m NoiseShareMsg) error {
	if s.cfg.XNoise == nil {
		return nil
	}
	if s.nsSenders == nil {
		s.nsSenders = make(map[uint64]struct{}, len(s.u5))
		s.noiseShares = make(map[uint64]map[int][]shamir.Share)
	}
	if _, inU5 := s.u5set[m.From]; !inU5 {
		return fmt.Errorf("secagg: noise shares from %d outside U5", m.From)
	}
	if _, dup := s.nsSenders[m.From]; dup {
		return fmt.Errorf("secagg: duplicate noise shares from %d", m.From)
	}
	ks := s.cfg.XNoise.RemovalComponents(len(s.cfg.ClientIDs) - len(s.u3))
	for v, byK := range m.Shares {
		_, inU5 := s.u5set[v]
		_, inU3 := s.u3set[v]
		if inU5 || !inU3 {
			return fmt.Errorf("secagg: unsolicited noise shares for %d", v)
		}
		if len(byK) != len(ks) {
			return fmt.Errorf("%w: %d for %d from %d, want %v", ErrNoiseComponents, len(byK), v, m.From, ks)
		}
		for _, k := range ks {
			if _, ok := byK[k]; !ok {
				return fmt.Errorf("%w: component %d for %d missing from %d", ErrNoiseComponents, k, v, m.From)
			}
		}
	}
	s.nsSenders[m.From] = struct{}{}
	for v, byK := range m.Shares {
		if s.noiseShares[v] == nil {
			s.noiseShares[v] = make(map[int][]shamir.Share)
		}
		for k, sh := range byK {
			s.noiseShares[v][k] = append(s.noiseShares[v][k], sh)
		}
	}
	return nil
}

// SealNoiseShares closes stage 5 and reconstructs the removable seeds of
// clients in U3\U5.
func (s *Server) SealNoiseShares() error {
	if s.cfg.XNoise == nil {
		return nil
	}
	if len(s.nsSenders) < s.cfg.Threshold {
		return fmt.Errorf("secagg: |U6|=%d < t=%d, aborting", len(s.nsSenders), s.cfg.Threshold)
	}
	numDropped := len(s.cfg.ClientIDs) - len(s.u3)
	ks := s.cfg.XNoise.RemovalComponents(numDropped)
	for _, v := range s.u3 {
		if slices.Contains(s.u5, v) {
			continue
		}
		// AddNoiseShare admitted every response with exactly the components
		// ks for v, so all K seed sharings of v come from one responder
		// cohort in one order, and one Lagrange coefficient pass recovers
		// every component (§3.2 recovery shape).
		sets := make([][]shamir.Share, len(ks))
		for i, k := range ks {
			sets[i] = s.noiseShares[v][k]
		}
		recovered, err := shamir.ReconstructBatch(sets, s.cfg.Threshold)
		if err != nil {
			return fmt.Errorf("secagg: reconstructing the noise seeds of %d: %w", v, err)
		}
		seeds := make(map[int]field.Element, len(ks))
		for i, k := range ks {
			seeds[k] = recovered[i]
		}
		s.noiseSeeds[v] = seeds
	}
	return nil
}

// Finalize removes the excessive XNoise components (if configured) and
// seals the round: the unmasked ring sum of the survivors' inputs and the
// partition of the roster by whether a client's masked input is in it.
// The sum is the server's own per-round accumulator, handed over, not
// copied: the server writes it no more, and Finalize runs once a round.
func (s *Server) Finalize() (Result, error) {
	if s.sum.Data == nil {
		return Result{}, fmt.Errorf("secagg: Finalize before unmasking")
	}
	res := Result{
		Survivors: append([]uint64(nil), s.u3...),
	}
	for _, id := range s.cfg.ClientIDs {
		if !slices.Contains(s.u3, id) {
			res.Dropped = append(res.Dropped, id)
		}
	}
	if s.cfg.XNoise != nil {
		numDropped := len(res.Dropped)
		ks := s.cfg.XNoise.RemovalComponents(numDropped)
		res.RemovedComponents = ks
		if len(ks) > 0 {
			seedsByClient := make(map[uint64]map[int]field.Element, len(s.u3))
			for _, u := range s.u3 {
				seeds, ok := s.noiseSeeds[u]
				if !ok {
					return Result{}, fmt.Errorf("secagg: missing noise seeds for survivor %d", u)
				}
				seedsByClient[u] = seeds
			}
			removal, err := xnoise.RemovalNoise(*s.cfg.XNoise, s.cfg.sampler(), seedsByClient, numDropped, s.cfg.Dim)
			if err != nil {
				return Result{}, err
			}
			if err := s.sum.SubSignedInPlace(removal); err != nil {
				return Result{}, err
			}
		}
	}
	res.Sum = s.sum.Data
	return res, nil
}
