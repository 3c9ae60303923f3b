package engine

import (
	"context"
	"fmt"
	"io"
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
// Two networks exist, and both drive one client cursor (clientWalk).
// RunLocal runs the server and its clients in lockstep in one process —
// typed values, no codec, no deadline: each downlink's recipients step on
// ForEach's bounded workers, and a stage ends when their uplinks are
// collected. ServeWire / JoinWire carry a Codec's encodings over a
// transport, each stage bounded by a deadline.

// NoTag marks the side a step does not have: a client step that awaits
// or sends nothing, or a silent downlink.
const NoTag = -1

// NoDrop (or any negative drop step) marks a client that completes the
// round.
const NoDrop = -1

// Downlink is the server→clients message a sealed step emits. Its
// recipients are also the senders the next step expects. Each, when set,
// gives every recipient its own body in place of Body; RunLocal calls it
// from its workers, so it must be safe for concurrent use. A Tag of NoTag
// is a silent downlink: it sets the next step's senders and delivers
// nothing.
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
	// link verified, which a row writes over any sender its message names.
	Apply func(from uint64, body any) error
	// QuorumMet completes the step early (engine.Stage).
	QuorumMet func() bool
	Seal      func() (Downlink, error)
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
// uplink message, deliver hands a sealed step's downlink to its
// recipients; the rest is how this kind of network bounds a stage.
type serverLink struct {
	eng     *Engine
	deliver func(Downlink) error
	// decode is nil when bodies arrive typed.
	decode   func(Msg) (any, error)
	deadline time.Duration
}

// walkServer runs a server program to completion over one link.
func walkServer(ctx context.Context, l serverLink, p ServerProgram) error {
	expect := p.Roster
	for _, st := range p.Steps {
		_, err := l.eng.Collect(ctx, Stage{
			Name: st.Name, Tag: st.Tag, Expect: expect,
			QuorumMet: st.QuorumMet, Deadline: l.deadline, Decode: l.decode, Apply: st.Apply,
		})
		if err != nil {
			return err
		}
		out, err := st.Seal()
		if err != nil {
			return err
		}
		expect = out.To
		if out.Tag != NoTag && len(out.To) > 0 { // a silent downlink only names the next senders
			if err := l.deliver(out); err != nil {
				return err
			}
		}
	}
	return nil
}

// clientWalk is one client's cursor through its program. Both links
// drive it: JoinWire with the downlinks its connection receives, RunLocal
// with the ones the server walker delivers.
type clientWalk struct {
	p    ClientProgram
	drop int   // vanish before the first sending step at or after it (NoDrop: never)
	at   int   // the step that runs next
	gone bool  // the client vanished
	out  []Msg // RunLocal: the uplinks of the walk's last advance
}

// waiting reports whether the walk still waits for a downlink: it has
// neither finished nor vanished.
func (w *clientWalk) waiting() bool { return !w.gone && w.at < len(w.p.Steps) }

// awaits reports whether a downlink tagged tag moves the walk on: it is
// the next step's Await, or a later step's when every step in between is
// optional. Anything else (stale broadcasts, replays) is discarded.
func (w *clientWalk) awaits(tag int) bool {
	for j := w.at; !w.gone && tag != NoTag && j < len(w.p.Steps); j++ {
		if w.p.Steps[j].Await == tag {
			return true
		}
		if !w.p.Steps[j].Optional {
			return false
		}
	}
	return false
}

// advance runs the walk on: first the step awaiting m's tag on m's body,
// skipping the optional steps before it (a NoTag m is the round's start
// and feeds no step), then every following step that awaits NoTag,
// handing each uplink to send. It stops before the next step that awaits
// a downlink, at the end of the program, or where the client vanishes:
// before its first sending step at or after its drop step. A step's
// failure is returned naming the client and the step. The caller checks
// awaits(m.Stage) first.
func (w *clientWalk) advance(m Msg, send func(tag int, body any) error) error {
	spent := m.Stage == NoTag
	if !spent {
		for w.p.Steps[w.at].Await != m.Stage {
			w.at++
		}
	}
	for ; w.at < len(w.p.Steps); w.at++ {
		st := w.p.Steps[w.at]
		var body any
		if st.Await != NoTag {
			if spent {
				return nil
			}
			body, spent = m.Body, true
		}
		if st.Send != NoTag && w.drop >= 0 && w.at >= w.drop {
			w.gone = true
			return nil
		}
		out, err := st.Do(body)
		if err != nil {
			return fmt.Errorf("client %d %s: %w", w.p.ID, st.Name, err)
		}
		if st.Send != NoTag {
			if err := send(st.Send, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- the in-process network: lockstep, typed values ---

// Local is RunLocal's walk scratch: the client walks and their uplink
// slots, the uplink queue and the engine that drains it. A driver that
// runs round after round on one set of stage tables keeps one and hands
// it to every round, which then makes none of these; nil makes a fresh
// one for the round. A Local runs one round at a time.
type Local struct {
	walks []clientWalk
	sends []func(tag int, body any) error // walk i's uplinks go to walks[i].out
	index map[uint64]int                  // client id → walk
	ids   []uint64                        // the round's clients, in table order
	queue []Msg                           // uplinks not yet collected, in downlink order
	head  int
	eng   *Engine
	link  serverLink
}

// RunLocal walks a server program and its clients' programs in one
// process, in lockstep: the clients start together, then every downlink
// a step seals runs its recipients' walks on ForEach's workers, and the
// server walker collects the uplinks they produced — typed values, no
// codec — in downlink order, applying each on its own goroutine. A stage
// ends once every uplink its downlink produced is collected, so nothing
// waits on a deadline: dropStep maps a client to the step before which it
// vanishes (NoDrop for none), and a vanished client simply sends nothing.
// A client whose step fails aborts the round with that error, the first
// failing recipient's in downlink order. l is the walk scratch (Local);
// nil runs on fresh scratch.
func RunLocal(l *Local, server ServerProgram, clients []ClientProgram, dropStep func(id uint64) int) error {
	if l == nil {
		l = new(Local)
	}
	l.start(clients, dropStep)
	if err := l.deliver(Downlink{Tag: NoTag, To: l.ids}); err != nil { // the round's start
		return err
	}
	return walkServer(context.Background(), l.link, server)
}

// start aims the scratch at a round of clients: one walk each, at step 0,
// with an empty uplink slot, and an empty queue. Each walk's send is made
// once, for its slot, so no round makes one.
func (l *Local) start(clients []ClientProgram, dropStep func(id uint64) int) {
	if l.eng == nil {
		l.index = make(map[uint64]int, len(clients))
		l.eng = New(l.next)
		l.link = serverLink{eng: l.eng, deliver: l.deliver}
	}
	for i := len(l.sends); i < len(clients); i++ {
		l.sends = append(l.sends, func(tag int, body any) error {
			w := &l.walks[i]
			w.out = append(w.out, Msg{From: w.p.ID, Stage: tag, Body: body})
			return nil
		})
	}
	if cap(l.walks) < len(clients) {
		l.walks = make([]clientWalk, len(clients))
	}
	l.walks = l.walks[:len(clients)]
	clear(l.index)
	l.ids = l.ids[:0]
	for i, p := range clients {
		l.walks[i] = clientWalk{p: p, drop: dropStep(p.ID), out: l.walks[i].out[:0]}
		l.index[p.ID] = i
		l.ids = append(l.ids, p.ID)
	}
	l.queue, l.head = l.queue[:0], 0
}

// deliver runs a downlink's recipients' walks on ForEach's workers, each
// queueing its uplinks in its own walk's slot so the workers share
// nothing, then appends the slots to the queue in downlink order.
func (l *Local) deliver(d Downlink) error {
	err := ForEach(len(d.To), func(i int) error {
		id := d.To[i]
		j, ok := l.index[id]
		if !ok {
			return nil
		}
		w := &l.walks[j]
		w.out = w.out[:0]
		if d.Tag != NoTag && !w.awaits(d.Tag) {
			return nil
		}
		body := d.Body
		if d.Each != nil {
			body = d.Each(id)
		}
		return w.advance(Msg{Stage: d.Tag, Body: body}, l.sends[j])
	})
	for _, id := range d.To {
		if j, ok := l.index[id]; ok {
			l.queue = append(l.queue, l.walks[j].out...)
		}
	}
	return err
}

// next is the engine's source: the queue, until it is drained, which ends
// the stage.
func (l *Local) next(context.Context) (Msg, error) {
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
		return Msg{}, io.EOF
	}
	l.head++
	return l.queue[l.head-1], nil
}

// SharedReader serializes reads so the clients of a local round, stepping
// on ForEach's workers, can share one entropy source (callers commonly pass deterministic
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
// step waits at most deadline (≤0: DefaultDeadline) for its senders — the
// deadline-based collection of the paper's §2.1. eng, when non-nil, is
// the externally owned engine whose fan-in spans every handshake and
// round on conn; nil builds one for this round.
func ServeWire(ctx context.Context, conn transport.ServerConn, eng *Engine, codec Codec,
	deadline time.Duration, p ServerProgram) error {

	if deadline <= 0 {
		deadline = DefaultDeadline
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
		deliver: func(d Downlink) error {
			if d.Each == nil {
				return sendTo(conn, codec, d.Tag, d.Body, d.To...)
			}
			for _, id := range d.To {
				if err := sendTo(conn, codec, d.Tag, d.Each(id), id); err != nil {
					return err
				}
			}
			return nil
		},
	}, p)
}

// sendTo encodes one downlink body once and broadcasts it to every id in to.
func sendTo(conn transport.ServerConn, codec Codec, tag int, body any, to ...uint64) error {
	payload, err := codec.encode(tag, body)
	if err != nil {
		return err
	}
	Broadcast(conn, tag, payload, to...)
	return nil
}

// DefaultDeadline is how long a wire stage waits for its senders when its
// caller sets no wait of its own (zero or negative).
const DefaultDeadline = 2 * time.Second

// Broadcast sends payload under tag to every id in to, then releases it:
// the caller hands it over. A send error means the recipient vanished,
// which the protocol's thresholds handle downstream, so it is no error
// here.
func Broadcast(conn transport.ServerConn, tag int, payload []byte, to ...uint64) {
	for _, id := range to {
		_ = conn.SendTo(id, transport.Frame{Stage: tag, Payload: payload})
	}
	transport.Release(payload)
}

// Uplink is Broadcast's one-recipient twin on a client's connection: it
// sends payload under tag to the server, then releases it. A lost server
// is the caller's error.
func Uplink(conn transport.ClientConn, tag int, payload []byte) error {
	err := conn.Send(transport.Frame{Stage: tag, Payload: payload})
	transport.Release(payload)
	return err
}

// Await receives from conn until a frame tagged tag arrives, releasing
// every other frame it reads, and returns decode's reading of that frame,
// whose payload it releases once decode has returned: decode keeps no
// alias into it. The context's error ends the wait.
func Await[T any](ctx context.Context, conn transport.ClientConn, tag int, decode func([]byte) (T, error)) (T, error) {
	for {
		f, err := conn.Recv(ctx)
		if err != nil {
			var zero T
			return zero, err
		}
		if f.Stage == tag {
			v, err := decode(f.Payload)
			transport.Release(f.Payload)
			return v, err
		}
		transport.Release(f.Payload)
	}
}

// JoinWire walks a client program over a transport connection: a frame
// no step awaits is released undecoded, an awaited one after its step's
// Do (the decoded body may borrow from it). The client closes the
// connection before the first sending step at or after dropStep (NoDrop:
// it completes the round).
func JoinWire(ctx context.Context, conn transport.ClientConn, codec Codec,
	p ClientProgram, dropStep int) error {

	send := func(tag int, body any) error {
		payload, err := codec.encode(tag, body)
		if err != nil {
			return err
		}
		return Uplink(conn, tag, payload)
	}
	w := clientWalk{p: p, drop: dropStep}
	err := w.advance(Msg{Stage: NoTag}, send)
	for err == nil && w.waiting() {
		var f transport.Frame
		if f, err = conn.Recv(ctx); err != nil {
			break
		}
		if !w.awaits(f.Stage) {
			transport.Release(f.Payload)
			continue
		}
		var body any
		if body, err = codec.decode(f.Stage, f.Payload); err == nil {
			err = w.advance(Msg{Stage: f.Stage, Body: body}, send)
		}
		transport.Release(f.Payload)
	}
	if err == nil && w.gone {
		return conn.Close()
	}
	return err
}
