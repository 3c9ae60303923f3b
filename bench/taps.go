package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/transport"
)

// Taps measure the wire layers from outside: they wrap
// transport.ClientConn and transport.ServerConn, which is the boundary
// every wire driver in internal/core talks through, and leave the program
// itself untouched. A tap always counts payload bytes and frames (three
// atomic adds per frame; the end-to-end wire_bytes_per_client needs them
// with tracing off) and, in a traced pass only, also records one event
// per frame — time, direction, stage tag, payload bytes; the party is the
// tap's own. Events stay in memory; spans and window metrics are derived
// after the last round.

// Stage tags as PROTOCOL.md assigns them. The handshake, sharding and
// transcript families are engine's exported constants. internal/core keeps
// the twelve round-stage tags unexported (wireAdvertise … wireResult), so
// the tap carries its own copy of those; the README prints the same map.
// A traced pass fails when it sees a tag this table lacks (unknownTags),
// so a protocol change that adds a stage cannot silently fold its frames
// into the wrong window.
const (
	tagAdvertise = iota
	tagRoster
	tagShares
	tagDeliver
	tagMasked
	tagConsistencyReq
	tagConsistency
	tagUnmaskReq
	tagUnmask
	tagNoiseReq
	tagNoise
	tagResult

	tagRoundOffer  = engine.TagRoundOffer
	tagRoundAck    = engine.TagRoundAck
	tagRoundCommit = engine.TagRoundCommit
	tagRoundHello  = engine.TagRoundHello

	tagShardHello    = engine.TagShardHello
	tagShardPartial  = engine.TagShardPartial
	tagCombineReport = engine.TagCombineReport

	tagTranscriptCommit  = engine.TagTranscriptCommit
	tagTranscriptProof   = engine.TagTranscriptProof
	tagCombineTranscript = engine.TagCombineTranscript
)

var knownTags = map[int32]bool{
	tagAdvertise: true, tagRoster: true, tagShares: true, tagDeliver: true, tagMasked: true,
	tagConsistencyReq: true, tagConsistency: true, tagUnmaskReq: true, tagUnmask: true,
	tagNoiseReq: true, tagNoise: true, tagResult: true,
	tagRoundOffer: true, tagRoundAck: true, tagRoundCommit: true, tagRoundHello: true,
	tagShardHello: true, tagShardPartial: true, tagCombineReport: true,
	tagTranscriptCommit: true, tagTranscriptProof: true, tagCombineTranscript: true,
}

const (
	dirSend = iota // this party wrote the frame
	dirRecv        // this party read the frame
)

type tapEvent struct {
	at    int64 // ns since the tracer's epoch
	round uint32
	tag   int32
	dir   uint8
	bytes uint32
}

// tracer owns the taps of one pass.
type tracer struct {
	events bool // record per-frame events (traced pass)
	epoch  time.Time
	round  atomic.Uint32 // round in flight; rounds are closed-loop, one at a time

	mu     sync.Mutex
	taps   []*tap
	rounds []roundSpan
}

type roundSpan struct {
	round      uint32
	start, end int64
}

func newTracer(events bool) *tracer {
	return &tracer{events: events, epoch: time.Now()}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// beginRound and endRound bracket the timed region of one round.
func (tr *tracer) beginRound(i int) {
	tr.round.Store(uint32(i))
	if tr.events {
		tr.mu.Lock()
		tr.rounds = append(tr.rounds, roundSpan{round: uint32(i), start: tr.now()})
		tr.mu.Unlock()
	}
}

func (tr *tracer) endRound() {
	if tr.events {
		tr.mu.Lock()
		tr.rounds[len(tr.rounds)-1].end = tr.now()
		tr.mu.Unlock()
	}
}

// tap is the record of one party on one network.
type tap struct {
	tr     *tracer
	tier   string // which network: "flat", "shard2", "combiner"
	party  string // "server" or "client:17"
	server bool

	sentBytes, recvBytes atomic.Uint64
	frames               atomic.Uint64

	mu     sync.Mutex
	events []tapEvent
}

func (tr *tracer) newTap(tier, party string, server bool) *tap {
	t := &tap{tr: tr, tier: tier, party: party, server: server}
	tr.mu.Lock()
	tr.taps = append(tr.taps, t)
	tr.mu.Unlock()
	return t
}

func (t *tap) record(dir uint8, tag int, n int) {
	if dir == dirSend {
		t.sentBytes.Add(uint64(n))
	} else {
		t.recvBytes.Add(uint64(n))
	}
	t.frames.Add(1)
	if !t.tr.events {
		return
	}
	ev := tapEvent{at: t.tr.now(), round: t.tr.round.Load(), tag: int32(tag), dir: dir, bytes: uint32(n)}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// tapServer wraps the server endpoint of a network.
type tapServer struct {
	inner transport.ServerConn
	tap   *tap
}

func (tr *tracer) wrapServer(tier string, inner transport.ServerConn) *tapServer {
	return &tapServer{inner: inner, tap: tr.newTap(tier, "server", true)}
}

func (s *tapServer) SendTo(client uint64, f transport.Frame) error {
	err := s.inner.SendTo(client, f)
	if err == nil {
		s.tap.record(dirSend, f.Stage, len(f.Payload))
	}
	return err
}

func (s *tapServer) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := s.inner.Recv(ctx)
	if err == nil {
		s.tap.record(dirRecv, f.Stage, len(f.Payload))
	}
	return f, err
}

func (s *tapServer) Clients() []uint64 { return s.inner.Clients() }
func (s *tapServer) Close() error      { return s.inner.Close() }

// tapClient wraps one client endpoint. Client endpoints are wrapped only
// in a traced pass: the server side already counts every byte once.
type tapClient struct {
	inner transport.ClientConn
	tap   *tap
}

func (tr *tracer) wrapClient(tier string, id uint64, inner transport.ClientConn) transport.ClientConn {
	if !tr.events {
		return inner
	}
	return &tapClient{inner: inner, tap: tr.newTap(tier, fmt.Sprintf("client:%d", id), false)}
}

// rewrapClient puts a re-dialled connection behind an existing client's
// tap, so a bounced client stays one party in the trace.
func (tr *tracer) rewrapClient(old, inner transport.ClientConn) transport.ClientConn {
	if tc, ok := old.(*tapClient); ok {
		return &tapClient{inner: inner, tap: tc.tap}
	}
	return inner
}

func (c *tapClient) Send(f transport.Frame) error {
	err := c.inner.Send(f)
	if err == nil {
		c.tap.record(dirSend, f.Stage, len(f.Payload))
	}
	return err
}

func (c *tapClient) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := c.inner.Recv(ctx)
	if err == nil {
		c.tap.record(dirRecv, f.Stage, len(f.Payload))
	}
	return f, err
}

func (c *tapClient) Close() error { return c.inner.Close() }

// wireCounts is what the always-on counters of the server taps hold.
type wireCounts struct{ up, down, frames uint64 }

// counts sums the server-side taps: up is client→server payload, down is
// server→client. On the sharded topology the combiner leg is included —
// it is traffic a client's round causes.
func (tr *tracer) counts() wireCounts {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var c wireCounts
	for _, t := range tr.taps {
		if !t.server {
			continue
		}
		c.up += t.recvBytes.Load()
		c.down += t.sentBytes.Load()
		c.frames += t.frames.Load()
	}
	return c
}

// unknownTags lists the stage tags the taps recorded that the table above
// does not name.
func (tr *tracer) unknownTags() []int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := make(map[int32]bool)
	for _, t := range tr.taps {
		t.mu.Lock()
		for _, e := range t.events {
			if !knownTags[e.tag] {
				seen[e.tag] = true
			}
		}
		t.mu.Unlock()
	}
	var out []int32
	for tag := range seen {
		out = append(out, tag)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// span is one line of the trace file: what one party did in one stage of
// one round. Every span's parent is its round's "round" span, whose
// parent is empty.
type span struct {
	Round   uint32 `json:"round"`
	Name    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Tier    string `json:"tier,omitempty"`
	Party   string `json:"party"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	Frames  int    `json:"frames,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndUS-s.StartUS) / 1e6 }

// tagStat summarises one (tag, direction) of one party in one round.
type tagStat struct {
	first, last int64
	frames      int
	bytes       uint64
}

type tagKey struct {
	tag int32
	dir uint8
}

func roundStats(evs []tapEvent) map[tagKey]*tagStat {
	st := make(map[tagKey]*tagStat)
	for _, e := range evs {
		k := tagKey{e.tag, e.dir}
		s := st[k]
		if s == nil {
			s = &tagStat{first: e.at, last: e.at}
			st[k] = s
		}
		if e.at < s.first {
			s.first = e.at
		}
		if e.at > s.last {
			s.last = e.at
		}
		s.frames++
		s.bytes += uint64(e.bytes)
	}
	return st
}

// spans derives the trace from the recorded events.
//
// A server-side window runs from the moment the server finished sending
// the previous stage's broadcast to the moment it finished sending this
// stage's — collection, decode, apply, seal and the broadcast itself, as
// the clients experience it. A client-side span runs from the arrival of
// the server's request to the departure of the client's answer.
func (tr *tracer) spans() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	bounds := make(map[uint32]roundSpan, len(tr.rounds))
	for _, r := range tr.rounds {
		bounds[r.round] = r
		out = append(out, span{Round: r.round, Name: "round", Party: "bench",
			StartUS: r.start / 1e3, EndUS: r.end / 1e3})
	}
	for _, t := range tr.taps {
		t.mu.Lock()
		byRound := make(map[uint32][]tapEvent)
		for _, e := range t.events {
			byRound[e.round] = append(byRound[e.round], e)
		}
		t.mu.Unlock()
		for round, evs := range byRound {
			rb, ok := bounds[round]
			if !ok {
				continue // set-up traffic before the first traced round
			}
			st := roundStats(evs)
			add := func(name string, start, end int64, frames int, bytes uint64) {
				out = append(out, span{Round: round, Name: name, Parent: "round", Tier: t.tier,
					Party: t.party, StartUS: start / 1e3, EndUS: end / 1e3, Frames: frames, Bytes: bytes})
			}
			if t.server {
				serverWindows(st, rb, add)
			} else {
				clientSpans(st, add)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Round != out[j].Round {
			return out[i].Round < out[j].Round
		}
		return out[i].StartUS < out[j].StartUS
	})
	return out
}

type addSpan func(name string, start, end int64, frames int, bytes uint64)

// serverWindows cuts one server's round at its own broadcasts.
func serverWindows(st map[tagKey]*tagStat, rb roundSpan, add addSpan) {
	sent := func(tag int) *tagStat { return st[tagKey{int32(tag), dirSend}] }
	recvd := func(tag int) *tagStat { return st[tagKey{int32(tag), dirRecv}] }
	// traffic collected during a window: what arrived, plus the broadcast
	// that closed it
	window := func(name string, from int64, closing *tagStat, collected ...int) int64 {
		if closing == nil {
			return from
		}
		frames, bytes := closing.frames, closing.bytes
		for _, tag := range collected {
			if r := recvd(tag); r != nil {
				frames += r.frames
				bytes += r.bytes
			}
		}
		add(name, from, closing.last, frames, bytes)
		return closing.last
	}

	if partial := recvd(tagShardPartial); partial != nil {
		// The combiner: first partial in → last report (or tier
		// transcript) out.
		closing := sent(tagCombineTranscript)
		if closing == nil {
			closing = sent(tagCombineReport)
		}
		if closing != nil {
			add("combine", partial.first, closing.last, partial.frames+closing.frames,
				partial.bytes+closing.bytes)
		}
		return
	}

	at := rb.start
	at = window("handshake", at, sent(tagRoundCommit), tagRoundHello, tagRoundAck)
	at = window("advertise_window", at, sent(tagRoster), tagAdvertise)
	at = window("shares_window", at, sent(tagDeliver), tagShares)
	at = window("masked_window", at, sent(tagConsistencyReq), tagMasked)
	at = window("consistency_window", at, sent(tagUnmaskReq), tagConsistency)
	if res := sent(tagResult); res != nil {
		// Unmasking ends when the first result frame leaves; a stage-5
		// noise-share round trip, when one happens, is part of it.
		frames, bytes := 0, uint64(0)
		for _, tag := range []int{tagUnmask, tagNoise} {
			if r := recvd(tag); r != nil {
				frames += r.frames
				bytes += r.bytes
			}
		}
		add("unmask_window", at, res.first, frames, bytes)
		add("result", res.first, res.last, res.frames, res.bytes)
		at = res.last
	}
	if proof := sent(tagTranscriptProof); proof != nil {
		commit := sent(tagTranscriptCommit)
		frames, bytes := proof.frames, proof.bytes
		if commit != nil {
			frames += commit.frames
			bytes += commit.bytes
		}
		add("transcript", at, proof.last, frames, bytes)
	}
}

// clientSpans times a client's answers to the three requests that make it
// compute.
func clientSpans(st map[tagKey]*tagStat, add addSpan) {
	for _, s := range []struct {
		name          string
		request, resp int
	}{
		{"client_sharekeys", tagRoster, tagShares},
		{"client_masked", tagDeliver, tagMasked},
		{"client_unmask", tagUnmaskReq, tagUnmask},
	} {
		req, resp := st[tagKey{int32(s.request), dirRecv}], st[tagKey{int32(s.resp), dirSend}]
		if req == nil || resp == nil {
			continue
		}
		add(s.name, req.last, resp.last, resp.frames, resp.bytes)
	}
}

// writeTrace writes one JSON object per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
