package core

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// Binary codec for the control messages — key advertisements, the roster,
// survivor sets, consistency signatures, the unmask request and the noise
// shares — in the same 0xD0 family and little-endian idiom as codec.go.
// They are small, but they are peer bytes like any other: every count is
// checked against the bytes that remain before anything is allocated,
// trailing bytes are rejected, and each accepted payload has exactly one
// encoding (map sections strictly ascending by key, field elements
// canonical), so decode∘encode is the identity on accepted input.
//
// Layout (integers little-endian; blob = [len:2][bytes]; slab = [n:4][n×8]):
//
//	advertise:    [magic][tagAdvertise][From:8][blob CipherPub][blob MaskPub][blob Signature]
//	roster:       [magic][tagRoster][n:4] n × ([From:8][blob][blob][blob])
//	id set:       [magic][tagIDSet][slab ids]            (U3 of tag 5, U5 of tag 9)
//	consistency:  [magic][tagConsistency][From:8][blob Signature]
//	unmask req:   [magic][tagUnmaskReq][slab U3][slab U4][n:4] n × ([id:8][blob Signature])
//	noise shares: [magic][tagNoiseShares][From:8][n:4] n × ([v:8][m:4] m × ([k:8][X:8][Y:8]))
//
// The tags are in codec.go's block with the family's others.

// maxControlBlob caps one key or signature field (32 and 64 bytes today).
const maxControlBlob = 1 << 10

// wireCodec is the SecAgg substrate's wire format: secagg's typed stage
// messages to and from frame payloads, by frame tag.
var wireCodec = engine.Codec{
	secagg.TagAdvertise:      engine.MsgOf(encodeAdvertise, decodeAdvertise),
	secagg.TagRoster:         engine.MsgOf(encodeRoster, decodeRoster),
	secagg.TagShares:         engine.MsgOf(encodeShareMsgs, decodeShareMsgs),
	secagg.TagDeliver:        engine.MsgOf(encodeShareMsgs, decodeShareMsgs),
	secagg.TagMasked:         engine.MsgOf(encodeMaskedInput, decodeMaskedInput),
	secagg.TagConsistencyReq: engine.MsgOf(encodeIDSet, decodeIDSet),
	secagg.TagConsistency:    engine.MsgOf(encodeConsistency, decodeConsistency),
	secagg.TagUnmaskReq:      engine.MsgOf(encodeUnmaskRequest, decodeUnmaskRequest),
	secagg.TagUnmask:         engine.MsgOf(encodeUnmask, decodeUnmask),
	secagg.TagNoiseReq: engine.MsgOf(
		func(r secagg.NoiseShareRequest) ([]byte, error) { return encodeIDSet(r.U5) },
		func(p []byte) (secagg.NoiseShareRequest, error) {
			u5, err := decodeIDSet(p)
			return secagg.NoiseShareRequest{U5: u5}, err
		}),
	secagg.TagNoise:  engine.MsgOf(encodeNoiseShares, decodeNoiseShares),
	secagg.TagResult: engine.MsgOf(encodeResult, decodeResult),
}

func writeAdvertise(w *transport.Writer, m secagg.AdvertiseMsg) {
	w.Uint64(m.From)
	w.Blob(m.CipherPub, maxControlBlob)
	w.Blob(m.MaskPub, maxControlBlob)
	w.Blob(m.Signature, maxControlBlob)
}

func readAdvertise(r *transport.Reader) secagg.AdvertiseMsg {
	return secagg.AdvertiseMsg{From: r.Uint64(), CipherPub: r.Blob(maxControlBlob),
		MaskPub: r.Blob(maxControlBlob), Signature: r.Blob(maxControlBlob)}
}

func encodeAdvertise(m secagg.AdvertiseMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagAdvertise, 8+3*(2+64))
	writeAdvertise(w, m)
	return w.Done()
}

func decodeAdvertise(p []byte) (secagg.AdvertiseMsg, error) {
	r := transport.NewReader(p, codecMagic, tagAdvertise)
	m := readAdvertise(r)
	return m, r.Done()
}

func encodeRoster(roster []secagg.AdvertiseMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagRoster, 4+len(roster)*(8+3*(2+32)))
	w.Count(len(roster), maxWireElems)
	for _, m := range roster {
		writeAdvertise(w, m)
	}
	return w.Done()
}

func decodeRoster(p []byte) ([]secagg.AdvertiseMsg, error) {
	r := transport.NewReader(p, codecMagic, tagRoster)
	var roster []secagg.AdvertiseMsg
	if n := r.Count(8+3*2, maxWireElems); n > 0 {
		roster = make([]secagg.AdvertiseMsg, n)
		for i := range roster {
			roster[i] = readAdvertise(r)
		}
	}
	return roster, r.Done()
}

func encodeIDSet(ids []uint64) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagIDSet, 4+8*len(ids))
	w.Words(ids, maxWireElems)
	return w.Done()
}

func decodeIDSet(p []byte) ([]uint64, error) {
	r := transport.NewReader(p, codecMagic, tagIDSet)
	ids := r.Words(maxWireElems)
	return ids, r.Done()
}

func encodeConsistency(m secagg.ConsistencyMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagConsistency, 8+2+len(m.Signature))
	w.Uint64(m.From)
	w.Blob(m.Signature, maxControlBlob)
	return w.Done()
}

func decodeConsistency(p []byte) (secagg.ConsistencyMsg, error) {
	r := transport.NewReader(p, codecMagic, tagConsistency)
	m := secagg.ConsistencyMsg{From: r.Uint64(), Signature: r.Blob(maxControlBlob)}
	return m, r.Done()
}

func encodeUnmaskRequest(req secagg.UnmaskRequest) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagUnmaskReq, 12+8*(len(req.U3)+len(req.U4)))
	w.Words(req.U3, maxWireElems)
	w.Words(req.U4, maxWireElems)
	w.Count(len(req.Signatures), maxWireElems)
	for _, id := range sortedMapKeys(req.Signatures) {
		w.Uint64(id)
		w.Blob(req.Signatures[id], maxControlBlob)
	}
	return w.Done()
}

func decodeUnmaskRequest(p []byte) (secagg.UnmaskRequest, error) {
	r := transport.NewReader(p, codecMagic, tagUnmaskReq)
	req := secagg.UnmaskRequest{U3: r.Words(maxWireElems), U4: r.Words(maxWireElems)}
	if n := r.Count(8+2, maxWireElems); n > 0 {
		req.Signatures = make(map[uint64][]byte, n)
		var prev uint64
		for i := 0; i < n; i++ {
			id := r.Key(i, &prev)
			req.Signatures[id] = r.Blob(maxControlBlob)
		}
	}
	return req, r.Done()
}

func encodeNoiseShares(m secagg.NoiseShareMsg) ([]byte, error) {
	w := transport.NewWriter(codecMagic, tagNoiseShares, 12)
	w.Uint64(m.From)
	w.Count(len(m.Shares), maxUnmaskEntries)
	for _, v := range sortedMapKeys(m.Shares) {
		byK := m.Shares[v]
		w.Uint64(v)
		w.Count(len(byK), maxUnmaskEntries)
		ks := make([]int, 0, len(byK))
		for k := range byK {
			if k < 0 {
				return nil, fmt.Errorf("core: negative noise component %d", k)
			}
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			w.Uint64(uint64(k))
			writeShare(w, byK[k])
		}
	}
	return w.Done()
}

func decodeNoiseShares(p []byte) (secagg.NoiseShareMsg, error) {
	r := transport.NewReader(p, codecMagic, tagNoiseShares)
	m := secagg.NoiseShareMsg{From: r.Uint64()}
	if n := r.Count(8+4, maxUnmaskEntries); n > 0 {
		m.Shares = make(map[uint64]map[int]shamir.Share, n)
		var prev, prevK uint64
		for i := 0; i < n; i++ {
			v := r.Key(i, &prev)
			nk := r.Count(8+16, maxUnmaskEntries)
			byK := make(map[int]shamir.Share, nk)
			for j := 0; j < nk; j++ {
				k := noiseComponent(r, j, &prevK)
				byK[k] = readShare(r)
			}
			m.Shares[v] = byK
		}
	}
	return m, r.Done()
}
