package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/transport"
)

// Stage programs: a substrate (secagg) describes its round as data — an
// ordered table of server steps and one of client steps — and the two
// walkers below run such a table over either kind of star network. That
// is the paper's "communication and computation operations encapsulated
// into stages" (§4.1) taken literally: the substrate says what each stage
// collects, applies and emits, and how a resumed round differs is rows
// too; the walkers own collection (the only Collect call outside the
// handshake and combiner legs), dropout injection, optional steps, and
// handing every Apply the sender the network verified rather than the
// one a payload claims. They never special-case a step index.
//
// Two networks exist. RunLocal carries typed values over channels — no
// codec, no deadline, and the drop schedule stands in for the deadline.
// ServeWire / JoinWire carry a Codec's encodings over a transport, each
// stage bounded by a deadline.

// NoTag marks the side a step does not have: a client step that awaits
// or sends nothing, or a silent downlink.
const NoTag = -1

// NoDrop (or any negative drop step) marks a client that completes the
// round.
const NoDrop = -1

// Downlink is the server→clients message a sealed step emits. Its
// recipients are also the senders the next step expects. Each, when set,
// gives every recipient its own body in place of Body. A Tag of NoTag is
// a silent downlink: it sets the next step's senders and delivers nothing.
type Downlink struct {
	Tag  int
	To   []uint64
	Body any
	Each func(to uint64) any
}

// ServerStep is one row of a substrate's server table: collect Tag from
// the expected senders, Apply each message on arrival, Seal.
type ServerStep struct {
	Name string
	Tag  int // the uplink tag the step collects
	// Apply feeds one message to the state machine; from is the sender the
	// link verified (see Stamped).
	Apply func(from uint64, body any) error
	// QuorumMet completes the step early (engine.Stage).
	QuorumMet func() bool
	Seal      func() (Downlink, error)
}

// Stamped adapts a state machine's typed Add method to ServerStep.Apply
// for a message type that names its own sender: the field from points at
// is overwritten with the link-verified sender, so no client can upload
// under another's id.
func Stamped[T any](add func(T) error, from func(*T) *uint64) func(uint64, any) error {
	return func(sender uint64, body any) error {
		m := body.(T)
		*from(&m) = sender
		return add(m)
	}
}

// ServerProgram is a substrate's server side of one round.
type ServerProgram struct {
	Roster []uint64 // the senders the first step expects
	Steps  []ServerStep
}

// ClientStep is one row of a substrate's client table: wait for the
// downlink Await, run Do on it, send the outcome under Send.
type ClientStep struct {
	Name  string
	Await int
	// Optional marks a step the server may skip (its Await never arrives
	// and the next step's does instead).
	Optional bool
	// Do runs the step on the awaited body (nil when Await is NoTag).
	Do   func(body any) (any, error)
	Send int
}

// ClientProgram is a substrate's client side of one round.
type ClientProgram struct {
	ID    uint64
	Steps []ClientStep
}

// Codec is a substrate's wire format: one message codec per frame tag.
type Codec map[int]MsgCodec

// MsgCodec turns one tag's typed message into a frame payload and back.
// Both directions hand over ownership, because the wire link releases
// the payload (ARCHITECTURE.md "Frame ownership"): Encode returns one
// nothing else references, Decode a message with no alias into it. A
// decoder may borrow where the engine releases late: Collect releases a
// server's uplink frame only after its Apply, and the client walker a
// downlink frame only after the step's Do. core's masked-input and
// result decoders are the two that borrow.
type MsgCodec struct {
	Encode func(body any) ([]byte, error)
	Decode func(payload []byte) (any, error)
}

// MsgOf builds a MsgCodec from a message type's encoder and decoder.
func MsgOf[T any](enc func(T) ([]byte, error), dec func([]byte) (T, error)) MsgCodec {
	return MsgCodec{
		Encode: func(body any) ([]byte, error) { return enc(body.(T)) },
		Decode: func(p []byte) (any, error) { return dec(p) },
	}
}

func (c Codec) encode(tag int, body any) ([]byte, error) {
	if m, ok := c[tag]; ok {
		return m.Encode(body)
	}
	return nil, fmt.Errorf("engine: no codec for tag %d", tag)
}

func (c Codec) decode(tag int, payload []byte) (any, error) {
	if m, ok := c[tag]; ok {
		return m.Decode(payload)
	}
	return nil, fmt.Errorf("engine: no codec for tag %d", tag)
}

// serverLink is the server's end of a star network: eng yields the next
// uplink message, deliver hands out a downlink one; the rest is how this
// kind of network bounds a stage.
type serverLink struct {
	eng     *Engine
	deliver func(to []uint64, tag int, body any) error
	// decode is nil when bodies arrive typed.
	decode   func(Msg) (any, error)
	deadline time.Duration
	// live narrows a step's expected senders to those that will answer;
	// nil when a deadline decides that instead.
	live func(step int, ids []uint64) []uint64
}

// walkServer runs a server program to completion over one link.
func walkServer(ctx context.Context, l serverLink, p ServerProgram) error {
	expect := p.Roster
	for i, st := range p.Steps {
		if l.live != nil {
			expect = l.live(i, expect)
		}
		_, err := l.eng.Collect(ctx, Stage{
			Name: st.Name, Tag: st.Tag, Expect: expect,
			QuorumMet: st.QuorumMet, Deadline: l.deadline, Decode: l.decode,
			Apply: func(from uint64, body any) error {
				if err, ok := body.(error); ok {
					return err // a local client's step failed: abort the round
				}
				return st.Apply(from, body)
			},
		})
		if err != nil {
			return err
		}
		out, err := st.Seal()
		if err != nil {
			return err
		}
		expect = out.To
		switch {
		case out.Tag == NoTag: // silent: it only names the next senders
		case out.Each != nil:
			for _, id := range out.To {
				if err := l.deliver([]uint64{id}, out.Tag, out.Each(id)); err != nil {
					return err
				}
			}
		case len(out.To) > 0:
			if err := l.deliver(out.To, out.Tag, out.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

// clientLink is a client's end of a star network.
type clientLink interface {
	send(tag int, body any) error
	// recv blocks for the next downlink message carrying one of tags;
	// anything else (stale broadcasts, replays) is discarded undecoded.
	// frame is the wire payload the message was decoded from (nil for a
	// typed body), which the walker releases once the step's Do has
	// returned: the decoded body may borrow from it.
	recv(ctx context.Context, tags []int) (m Msg, frame []byte, err error)
	// close makes the client vanish (dropout injection).
	close() error
}

// walkClient runs a client program over one link, vanishing before the
// first sending step at or after dropStep. A failing step returns its
// uplink tag with the error, so a local round can tell the server which
// collection to abort.
func walkClient(ctx context.Context, l clientLink, p ClientProgram, dropStep int) (int, error) {
	steps := p.Steps
	for i := 0; i < len(steps); i++ {
		var (
			body  any
			frame []byte
		)
		if steps[i].Await != NoTag {
			// The awaited downlink, or a later step's when every step in
			// between is optional.
			want := []int{steps[i].Await}
			for j := i; steps[j].Optional && j+1 < len(steps); j++ {
				want = append(want, steps[j+1].Await)
			}
			m, f, err := l.recv(ctx, want)
			if err != nil {
				return NoTag, err
			}
			frame = f
			for steps[i].Await != m.Stage {
				i++
			}
			body = m.Body
		}
		st := steps[i]
		if st.Send != NoTag && dropStep >= 0 && i >= dropStep {
			transport.Release(frame)
			return NoTag, l.close()
		}
		out, err := st.Do(body)
		transport.Release(frame) // after Do: the body may borrow from the frame
		if err != nil {
			return st.Send, fmt.Errorf("client %d %s: %w", p.ID, st.Name, err)
		}
		if st.Send != NoTag {
			if err := l.send(st.Send, out); err != nil {
				return NoTag, err
			}
		}
	}
	return NoTag, nil
}

// --- the in-process network: channels carrying typed values ---

// errRoundOver is what a local client sees when the round ended without
// it (abort, threshold exclusion, or it had already vanished).
var errRoundOver = errors.New("engine: round over")

type localClient struct {
	id     uint64
	inbox  <-chan Msg
	uplink chan<- Msg
}

func (c localClient) send(tag int, body any) error {
	c.uplink <- Msg{From: c.id, Stage: tag, Body: body}
	return nil
}

func (c localClient) recv(ctx context.Context, tags []int) (Msg, []byte, error) {
	for {
		select {
		case m, ok := <-c.inbox:
			if !ok {
				return Msg{}, nil, errRoundOver
			}
			for _, t := range tags {
				if m.Stage == t {
					return m, nil, nil
				}
			}
		case <-ctx.Done():
			return Msg{}, nil, ctx.Err()
		}
	}
}

func (c localClient) close() error { return nil }

// RunLocal walks a server program and its clients' programs in one
// process: every client is a goroutine, stage messages travel as typed
// values over channels, and the server applies them inline as they
// arrive — client compute overlaps server-side collection (§4.1) with no
// codec work at all. dropStep maps a client to the step before which it
// vanishes (NoDrop for none); since nothing times out in-process, the
// server expects exactly the clients the schedule leaves alive. A client
// whose step fails aborts the round with that error.
func RunLocal(server ServerProgram, clients []ClientProgram, dropStep func(id uint64) int) error {
	// Buffers are sized so no send ever blocks — at most one uplink
	// message per client per step plus one failure, at most one downlink
	// message per client per step — which lets the round abort at any
	// step without stranding goroutines.
	depth := len(server.Steps) + 1
	uplink := make(chan Msg, len(clients)*depth)
	inboxes := make(map[uint64]chan Msg, len(clients))
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, p := range clients {
		inbox := make(chan Msg, depth)
		inboxes[p.ID] = inbox
		wg.Add(1)
		go func(p ClientProgram) {
			defer wg.Done()
			l := localClient{id: p.ID, inbox: inbox, uplink: uplink}
			if tag, err := walkClient(ctx, l, p, dropStep(p.ID)); err != nil && tag != NoTag {
				uplink <- Msg{From: p.ID, Stage: tag, Body: err}
			}
		}(p)
	}
	defer func() {
		for _, inbox := range inboxes {
			close(inbox) // release clients parked on a downlink that never came
		}
		wg.Wait()
	}()

	eng := New(func(ctx context.Context) (Msg, error) {
		select {
		case m := <-uplink:
			return m, nil
		case <-ctx.Done():
			return Msg{}, ctx.Err()
		}
	})
	return walkServer(ctx, serverLink{
		eng: eng,
		deliver: func(to []uint64, tag int, body any) error {
			for _, id := range to {
				if inbox, ok := inboxes[id]; ok {
					inbox <- Msg{Stage: tag, Body: body}
				}
			}
			return nil
		},
		live: func(step int, ids []uint64) []uint64 {
			out := make([]uint64, 0, len(ids))
			for _, id := range ids {
				if d := dropStep(id); d < 0 || step < d {
					out = append(out, id)
				}
			}
			return out
		},
	}, server)
}

// SharedReader serializes reads so the client goroutines of a local round
// can share one entropy source (callers commonly pass deterministic
// readers in tests; crypto/rand.Reader is safe either way).
func SharedReader(r io.Reader) io.Reader { return &sharedReader{r: r} }

type sharedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (s *sharedReader) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Read(p)
}

// --- the wire network: a transport carrying a Codec's encodings ---

// ServeWire walks a server program over a transport: frames are admitted
// as they arrive, decoded by the codec and applied on the walker's own
// goroutine while later frames queue in the engine's fan-in, and each
// step waits at most deadline (≤0: 2s) for its senders — the
// deadline-based collection of the paper's §2.1. eng, when non-nil, is
// the externally owned engine whose fan-in spans every handshake and
// round on conn; nil builds one for this round.
func ServeWire(ctx context.Context, conn transport.ServerConn, eng *Engine, codec Codec,
	deadline time.Duration, p ServerProgram) error {

	if deadline <= 0 {
		deadline = 2 * time.Second
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if eng == nil {
		eng = New(TransportSource(ctx, conn))
	}
	return walkServer(ctx, serverLink{
		eng:      eng,
		deadline: deadline,
		decode:   func(m Msg) (any, error) { return codec.decode(m.Stage, m.Body.([]byte)) },
		deliver: func(to []uint64, tag int, body any) error {
			payload, err := codec.encode(tag, body)
			if err != nil {
				return err
			}
			for _, id := range to {
				// A send error means the client vanished; the protocol's
				// thresholds handle that downstream.
				_ = conn.SendTo(id, transport.Frame{Stage: tag, Payload: payload})
			}
			transport.Release(payload)
			return nil
		},
	}, p)
}

type wireClient struct {
	conn  transport.ClientConn
	codec Codec
}

func (c wireClient) send(tag int, body any) error {
	payload, err := c.codec.encode(tag, body)
	if err != nil {
		return err
	}
	err = c.conn.Send(transport.Frame{Stage: tag, Payload: payload})
	transport.Release(payload)
	return err
}

func (c wireClient) recv(ctx context.Context, tags []int) (Msg, []byte, error) {
	for {
		f, err := c.conn.Recv(ctx)
		if err != nil {
			return Msg{}, nil, err
		}
		if !slices.Contains(tags, f.Stage) {
			transport.Release(f.Payload)
			continue
		}
		body, err := c.codec.decode(f.Stage, f.Payload)
		if err != nil {
			transport.Release(f.Payload)
			return Msg{}, nil, err
		}
		return Msg{Stage: f.Stage, Body: body}, f.Payload, nil
	}
}

func (c wireClient) close() error { return c.conn.Close() }

// JoinWire walks a client program over a transport connection. The
// client closes the connection before the first sending step at or after
// dropStep (NoDrop: it completes the round).
func JoinWire(ctx context.Context, conn transport.ClientConn, codec Codec,
	p ClientProgram, dropStep int) error {

	_, err := walkClient(ctx, wireClient{conn: conn, codec: codec}, p, dropStep)
	return err
}
