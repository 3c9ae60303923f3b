package engine

import (
	"context"
	"errors"
	"testing"
	"time"
	"unsafe"

	"repro/internal/transport"
)

// leasedFrame builds a wire message whose payload is a transport lease of
// a size class nothing else in this package's tests uses.
func leasedFrame(t *testing.T, from uint64, tag int, label string) Msg {
	t.Helper()
	w := transport.NewWriter(0xEE, byte(tag), 3000)
	w.Raw([]byte(label)...)
	p, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	return Msg{From: from, Stage: tag, Body: p}
}

func label(m Msg) string { return string(m.Body.([]byte)[2:]) }

// releasedFrames empties that size class of the transport's free list and
// reports which of msgs' payloads were in it — i.e. had been released.
func releasedFrames(msgs map[string]Msg) map[string]bool {
	pooled := map[*byte]bool{}
	for i := 0; i <= len(msgs); i++ {
		p, _ := transport.NewWriter(0, 0, 3000).Done()
		pooled[unsafe.SliceData(p)] = true
	}
	out := map[string]bool{}
	for name, m := range msgs {
		out[name] = pooled[unsafe.SliceData(m.Body.([]byte))]
	}
	return out
}

// TestCollectReleasesDiscardsKeepsParked: Collect is the wire server's
// release point. A frame goes back to the transport once its Apply has
// returned — not before, the decoded body may borrow from it — or when it
// is discarded as stale, duplicate or unexpected; a parked hello keeps its
// payload until the Collect that replays it.
func TestCollectReleasesDiscardsKeepsParked(t *testing.T) {
	msgs := map[string]Msg{
		"stale":      leasedFrame(t, 1, 0, "stale"),
		"unexpected": leasedFrame(t, 9, 2, "unexpected"),
		"first":      leasedFrame(t, 1, 2, "first"),
		"duplicate":  leasedFrame(t, 1, 2, "duplicate"),
		"old hello":  leasedFrame(t, 2, TagRoundHello, "old hello"),
		"hello":      leasedFrame(t, 2, TagRoundHello, "hello"), // a retransmit replaces the parked one
		"second":     leasedFrame(t, 2, 2, "second"),
	}
	ch := make(chan Msg, len(msgs))
	for _, name := range []string{"stale", "unexpected", "first", "duplicate", "old hello", "hello", "second"} {
		ch <- msgs[name]
	}
	eng := New(chanRecv(ch))

	var applied []string
	admitted, err := eng.Collect(context.Background(), Stage{
		Name: "round-stage", Tag: 2, Expect: []uint64{1, 2},
		// A borrowing decoder: the body is the payload itself.
		Decode: func(m Msg) (any, error) { return m.Body, nil },
		Apply: func(from uint64, body any) error {
			applied = append(applied, label(Msg{Body: body}))
			return nil
		},
	})
	if err != nil || len(admitted) != 2 {
		t.Fatalf("round stage: admitted %v, err %v", admitted, err)
	}
	if len(applied) != 2 || applied[0] != "first" || applied[1] != "second" {
		t.Fatalf("applied %q: a frame was released before its Apply", applied)
	}
	released := releasedFrames(msgs)
	for _, name := range []string{"stale", "unexpected", "first", "duplicate", "old hello", "second"} {
		if !released[name] {
			t.Errorf("the %s frame was not released", name)
		}
	}
	if released["hello"] {
		t.Fatal("the parked hello was released while parked")
	}

	var replayed string
	admitted, err = eng.Collect(context.Background(), Stage{
		Name: "hello", Tag: TagRoundHello, Expect: []uint64{2}, Deadline: 100 * time.Millisecond,
		Apply: func(_ uint64, body any) error { replayed = label(Msg{Body: body}); return nil },
	})
	if err != nil || len(admitted) != 1 || replayed != "hello" {
		t.Fatalf("hello stage: admitted %v, replayed %q, err %v", admitted, replayed, err)
	}
	if !releasedFrames(msgs)["hello"] {
		t.Error("the replayed hello was not released after its Apply")
	}
}

// frameConn is a client connection that yields its frames in order, then
// blocks until the context ends.
type frameConn struct{ frames []transport.Frame }

func (c *frameConn) Send(transport.Frame) error { return nil }
func (c *frameConn) Close() error               { return nil }
func (c *frameConn) Recv(ctx context.Context) (transport.Frame, error) {
	if len(c.frames) == 0 {
		<-ctx.Done()
		return transport.Frame{}, ctx.Err()
	}
	f := c.frames[0]
	c.frames = c.frames[1:]
	return f, nil
}

// TestJoinWireReleasesAfterDo: the client walker is a wire client's
// release point. A downlink frame goes back to the transport once its
// step's Do has returned — not before, the decoded body may borrow from
// it — and a frame of a tag no step awaits is released as it is skipped.
func TestJoinWireReleasesAfterDo(t *testing.T) {
	msgs := map[string]Msg{
		"stale":   leasedFrame(t, 0, 5, "stale"),
		"awaited": leasedFrame(t, 0, 2, "awaited"),
	}
	conn := &frameConn{}
	for _, name := range []string{"stale", "awaited"} {
		conn.frames = append(conn.frames, transport.Frame{Stage: msgs[name].Stage, Payload: msgs[name].Body.([]byte)})
	}
	borrowing := MsgCodec{Decode: func(p []byte) (any, error) { return p, nil }}
	var (
		saw    string
		during map[string]bool
	)
	program := ClientProgram{ID: 1, Steps: []ClientStep{
		{Name: "open", Await: NoTag, Send: NoTag, Do: func(any) (any, error) { return nil, nil }},
		{Name: "take", Await: 2, Send: NoTag, Do: func(body any) (any, error) {
			saw, during = label(Msg{Body: body}), releasedFrames(msgs)
			return nil, nil
		}},
	}}
	if err := JoinWire(context.Background(), conn, Codec{2: borrowing, 5: borrowing}, program, NoDrop); err != nil {
		t.Fatal(err)
	}
	if saw != "awaited" {
		t.Fatalf("Do saw %q, want the awaited frame", saw)
	}
	if !during["stale"] {
		t.Error("the skipped stale frame was not released")
	}
	if during["awaited"] {
		t.Fatal("the awaited frame was released before its step's Do")
	}
	if !releasedFrames(map[string]Msg{"awaited": msgs["awaited"]})["awaited"] {
		t.Error("the awaited frame was not released after its step's Do")
	}
}

// sendProbe is a server connection that asks, at every send, whether the
// payload is already back in the transport's free list.
type sendProbe struct {
	transport.ServerConn
	frame Msg
	early bool // a send saw the payload released
}

func (c *sendProbe) SendTo(id uint64, f transport.Frame) error {
	c.early = c.early || releasedFrames(map[string]Msg{"p": c.frame})["p"]
	return c.ServerConn.SendTo(id, f)
}

// TestBroadcastReleasesOnceAfterLastSend: Broadcast delivers the same
// bytes to every recipient, skips a vanished one without an error, and
// hands the payload back exactly once, after its last send.
func TestBroadcastReleasesOnceAfterLastSend(t *testing.T) {
	net := transport.NewMemoryNetwork(4)
	conns := map[uint64]transport.ClientConn{}
	for _, id := range []uint64{1, 2, 3} {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	conns[2].Close()
	m := leasedFrame(t, 0, 7, "broadcast")
	payload := m.Body.([]byte)
	want := string(payload)
	probe := &sendProbe{ServerConn: net.Server(), frame: m}
	Broadcast(probe, 7, payload, 1, 2, 3)
	if probe.early {
		t.Fatal("the payload was released before the last send")
	}
	released := 0
	for range 3 {
		p, _ := transport.NewWriter(0, 0, 3000).Done()
		if unsafe.SliceData(p) == unsafe.SliceData(payload) {
			released++
		}
	}
	if released != 1 {
		t.Fatalf("the payload was released %d times, want once", released)
	}
	for _, id := range []uint64{1, 3} {
		f, err := conns[id].Recv(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if f.Stage != 7 || string(f.Payload) != want {
			t.Fatalf("client %d received tag %d %q, want tag 7 %q", id, f.Stage, f.Payload, want)
		}
	}
}

// TestAwaitReleasesWhatItReads: Await returns the decoding of the first
// frame of its tag, releases that frame once the decode has returned and
// every other frame it read as it skips it, leaves the frames after it
// unread, and ends with the context's error at the deadline.
func TestAwaitReleasesWhatItReads(t *testing.T) {
	msgs := map[string]Msg{
		"other":  leasedFrame(t, 0, 5, "other"),
		"stale":  leasedFrame(t, 0, 6, "stale"),
		"first":  leasedFrame(t, 0, 7, "first"),
		"second": leasedFrame(t, 0, 7, "second"),
	}
	conn := &frameConn{}
	for _, name := range []string{"other", "stale", "first", "second"} {
		conn.frames = append(conn.frames, transport.Frame{Stage: msgs[name].Stage, Payload: msgs[name].Body.([]byte)})
	}
	var during map[string]bool
	got, err := Await(context.Background(), conn, 7, func(p []byte) (string, error) {
		during = releasedFrames(msgs)
		return label(Msg{Body: p}), nil
	})
	if err != nil || got != "first" {
		t.Fatalf("Await = %q, %v; want the first frame of its tag", got, err)
	}
	if !during["other"] || !during["stale"] {
		t.Errorf("the skipped frames were not released as they were read: %v", during)
	}
	if during["first"] {
		t.Fatal("the awaited frame was released before its decode returned")
	}
	after := releasedFrames(msgs)
	if !after["first"] {
		t.Error("the awaited frame was not released after its decode")
	}
	if after["second"] || len(conn.frames) != 1 {
		t.Error("Await read past the frame it awaited")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := Await(ctx, &frameConn{}, 7, func(p []byte) ([]byte, error) { return p, nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await at the deadline: %v, want the context's error", err)
	}
}
