package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/field"
	"repro/internal/secagg"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// Binary payload codec for the hot wire messages.
//
// A reflective encoding costs milliseconds and megabytes of garbage per
// 100k-dim masked input; the messages that dominate the round's byte and
// message volume use the hand-rolled length-prefixed little-endian layouts
// below:
//
//   - the stage-2 masked input and the final result broadcast (dim-length
//     vectors — the round's dominant payload), and
//   - the stage-1 encrypted share bundles (the n² small messages per
//     round: every client uploads one ciphertext per neighbor, and the
//     server relays each recipient's list back down), and
//   - the stage-4 unmask responses (per-survivor share maps).
//
// The low-rate control messages (key advertisements, survivor sets,
// signatures, noise shares) share the family and the idiom in control.go.
//
// Layout (all integers little-endian):
//
//	masked input: [magic][tagMaskedInput][From:8][n:4][Y: n×8]
//	result:       [magic][tagResult]
//	              [n:4][Sum: n×8] [n:4][Survivors: n×8] [n:4][Dropped: n×8]
//	              [n:4][RemovedComponents: n×8, as uint64]
//	share msgs:   [magic][tagShareMsgs][n:4]
//	              n × ([From:8][To:8][ctLen:4][Ciphertext: ctLen bytes])
//	unmask:       [magic][tagUnmask][From:8]
//	              [n:4] n × ([v:8][NumKeyChunks × (X:8)(Y:8)])   mask-key shares
//	              [n:4] n × ([v:8][X:8][Y:8])                    self-seed shares
//	              [n:4] n × ([k:8][g:8])                         own noise seeds
//	              (each section sorted by key; a zero count decodes as nil)
//
// The magic byte keeps the family disjoint from the repo's other framed
// encodings, and every payload kind of the family — these four, the
// control messages (control.go) and the re-key handshake (handshake.go) —
// has its own tag here, so a misrouted payload fails loudly rather than
// mis-decoding.
const (
	codecMagic     = 0xD0
	tagMaskedInput = 0x01
	tagResult      = 0x02
	tagShareMsgs   = 0x03
	tagUnmask      = 0x04
	tagAdvertise   = 0x05
	tagRoster      = 0x06
	tagIDSet       = 0x07
	tagConsistency = 0x08
	tagUnmaskReq   = 0x09
	tagNoiseShares = 0x0A
	tagRoundOffer  = 0x0B
	tagRoundAck    = 0x0C
	tagRoundCommit = 0x0D
	tagRoundHello  = 0x0E
)

// maxWireElems caps decoded slice lengths so a hostile length prefix
// cannot force a huge allocation. It is sized to the transport's 256 MiB
// frame cap (a maximal slab plus codec headers slightly exceeds the frame
// cap, so framing, not this cap, is the binding limit near the boundary).
const maxWireElems = 1 << 25

func element(r *transport.Reader) field.Element {
	v := r.Uint64()
	if v >= field.Modulus {
		r.Fail(fmt.Errorf("core: field element %d not canonical", v))
		return 0
	}
	return field.New(v)
}

// encodeMaskedInput encodes the stage-2 masked input message.
func encodeMaskedInput(m secagg.MaskedInputMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagMaskedInput, 8+4+8*len(m.Y))
	w.Uint64(m.From)
	w.Words(m.Y, maxWireElems)
	return w.Done()
}

// decodeMaskedInput decodes the stage-2 masked input message. It borrows:
// YLE is the frame's own little-endian words, which
// secagg.Server.AddMasked folds in place, and it dies with the payload
// (ARCHITECTURE.md "Frame ownership").
func decodeMaskedInput(p []byte) (secagg.MaskedInputMsg, error) {
	r := transport.NewReader(p, codecMagic, tagMaskedInput)
	m := secagg.MaskedInputMsg{From: r.Uint64(), YLE: r.WordsLE(maxWireElems)}
	return m, r.Done()
}

// maxShareMsgs caps the declared message count of a share-bundle list and
// maxShareCtBytes the declared length of one ciphertext, so hostile
// prefixes cannot force huge allocations. Both sit far above protocol
// reality (n−1 messages per list; a ciphertext carries a few Shamir
// shares plus AEAD overhead) while staying within the transport frame cap.
const (
	maxShareMsgs    = 1 << 20
	maxShareCtBytes = 1 << 24
)

// encodeShareMsgs encodes a stage-1 encrypted-share list (uplink: one
// sender's ciphertexts; downlink: one recipient's delivery).
func encodeShareMsgs(msgs []secagg.EncryptedShareMsg) ([]byte, error) {
	size := 4
	for _, m := range msgs {
		size += 8 + 8 + 4 + len(m.Ciphertext)
	}
	w := transport.NewWriter(codecMagic, tagShareMsgs, size)
	w.Count(len(msgs), maxShareMsgs)
	for _, m := range msgs {
		w.Uint64(m.From)
		w.Uint64(m.To)
		w.Bytes(m.Ciphertext, maxShareCtBytes)
	}
	return w.Done()
}

// decodeShareMsgs decodes a stage-1 encrypted-share list. Each message
// costs at least its 20-byte header, so a count prefix the remaining
// bytes cannot carry is rejected before the slice allocation.
func decodeShareMsgs(p []byte) ([]secagg.EncryptedShareMsg, error) {
	r := transport.NewReader(p, codecMagic, tagShareMsgs)
	var msgs []secagg.EncryptedShareMsg
	if n := r.Count(20, maxShareMsgs); n > 0 {
		msgs = make([]secagg.EncryptedShareMsg, n)
		for i := range msgs {
			msgs[i] = secagg.EncryptedShareMsg{From: r.Uint64(), To: r.Uint64(), Ciphertext: r.Bytes(maxShareCtBytes)}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return msgs, nil
}

// maxUnmaskEntries caps the per-section entry counts of an unmask payload:
// protocol reality is at most n entries per section (one share per peer,
// one seed per noise component), so 2^20 sits far above any real round
// while keeping a hostile count prefix from forcing a huge allocation.
const maxUnmaskEntries = 1 << 20

// elementsPerMaskBundle is the word count of one mask-key share bundle on
// the wire: NumKeyChunks (X, Y) pairs.
const elementsPerMaskBundle = 2 * secagg.NumKeyChunks

func writeShare(w *transport.Writer, sh shamir.Share) {
	w.Uint64(sh.X.Uint64())
	w.Uint64(sh.Y.Uint64())
}

func readShare(r *transport.Reader) shamir.Share {
	return shamir.Share{X: element(r), Y: element(r)}
}

// encodeUnmask encodes the stage-4 unmask response — the per-survivor
// share maps. Map sections are emitted in ascending key order, the one
// order the decoder accepts.
func encodeUnmask(m secagg.UnmaskMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagUnmask, 8+
		4+len(m.MaskKeyShares)*(8+8*elementsPerMaskBundle)+
		4+len(m.SelfSeedShares)*(8+16)+
		4+len(m.OwnNoiseSeeds)*16)
	w.Uint64(m.From)
	w.Count(len(m.MaskKeyShares), maxUnmaskEntries)
	for _, v := range sortedMapKeys(m.MaskKeyShares) {
		w.Uint64(v)
		for _, sh := range m.MaskKeyShares[v] {
			writeShare(w, sh)
		}
	}
	w.Count(len(m.SelfSeedShares), maxUnmaskEntries)
	for _, v := range sortedMapKeys(m.SelfSeedShares) {
		w.Uint64(v)
		writeShare(w, m.SelfSeedShares[v])
	}
	w.Count(len(m.OwnNoiseSeeds), maxUnmaskEntries)
	ks := make([]int, 0, len(m.OwnNoiseSeeds))
	for k := range m.OwnNoiseSeeds {
		if k < 0 {
			return nil, fmt.Errorf("core: negative noise component %d", k)
		}
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		w.Uint64(uint64(k))
		w.Uint64(m.OwnNoiseSeeds[k].Uint64())
	}
	return w.Done()
}

// noiseComponent reads a noise-component key of a map section.
func noiseComponent(r *transport.Reader, i int, prev *uint64) int {
	k := r.Key(i, prev)
	if k > math.MaxInt32 {
		r.Fail(fmt.Errorf("core: noise component %d out of range", k))
	}
	return int(k)
}

// decodeUnmask decodes a stage-4 unmask response; a section whose count
// the remaining payload cannot carry fails before the map allocation.
func decodeUnmask(p []byte) (secagg.UnmaskMsg, error) {
	r := transport.NewReader(p, codecMagic, tagUnmask)
	m := secagg.UnmaskMsg{From: r.Uint64()}
	var prev uint64
	if n := r.Count(8+8*elementsPerMaskBundle, maxUnmaskEntries); n > 0 {
		m.MaskKeyShares = make(map[uint64][secagg.NumKeyChunks]shamir.Share, n)
		for i := 0; i < n; i++ {
			v := r.Key(i, &prev)
			var bundle [secagg.NumKeyChunks]shamir.Share
			for c := range bundle {
				bundle[c] = readShare(r)
			}
			m.MaskKeyShares[v] = bundle
		}
	}
	if n := r.Count(8+16, maxUnmaskEntries); n > 0 {
		m.SelfSeedShares = make(map[uint64]shamir.Share, n)
		for i := 0; i < n; i++ {
			v := r.Key(i, &prev)
			m.SelfSeedShares[v] = readShare(r)
		}
	}
	if n := r.Count(16, maxUnmaskEntries); n > 0 {
		m.OwnNoiseSeeds = make(map[int]field.Element, n)
		for i := 0; i < n; i++ {
			k := noiseComponent(r, i, &prev)
			m.OwnNoiseSeeds[k] = element(r)
		}
	}
	if err := r.Done(); err != nil {
		return secagg.UnmaskMsg{}, err
	}
	return m, nil
}

func sortedMapKeys[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// encodeResult encodes the final result broadcast.
func encodeResult(res secagg.Result) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagResult,
		16+8*(len(res.Sum)+len(res.Survivors)+len(res.Dropped)+len(res.RemovedComponents)))
	w.Words(res.Sum, maxWireElems)
	w.Words(res.Survivors, maxWireElems)
	w.Words(res.Dropped, maxWireElems)
	w.Count(len(res.RemovedComponents), maxWireElems)
	for _, k := range res.RemovedComponents {
		w.Uint64(uint64(k))
	}
	return w.Done()
}

// decodeResult decodes the final result broadcast. It borrows the sum,
// as decodeMaskedInput borrows the masked input: SumLE is the frame's own
// little-endian words, which the client's Result step copies into its
// buffer before the frame is released.
func decodeResult(p []byte) (secagg.Result, error) {
	r := transport.NewReader(p, codecMagic, tagResult)
	res := secagg.Result{SumLE: r.WordsLE(maxWireElems), Survivors: r.Words(maxWireElems), Dropped: r.Words(maxWireElems)}
	if ks := r.Words(maxWireElems); len(ks) > 0 {
		res.RemovedComponents = make([]int, len(ks))
		for i, k := range ks {
			res.RemovedComponents[i] = int(k)
		}
	}
	if err := r.Done(); err != nil {
		return secagg.Result{}, err
	}
	return res, nil
}
