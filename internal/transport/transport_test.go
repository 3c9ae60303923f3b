package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"
)

func testPair(t *testing.T, server ServerConn, clients map[uint64]ClientConn) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Client → server.
	payload := []byte("hello from 7")
	if err := clients[7].Send(Frame{Stage: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := server.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 7 || f.Stage != 2 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("server received %+v", f)
	}

	// Server → clients.
	for id, c := range clients {
		msg := Frame{Stage: 3, Payload: []byte{byte(id)}}
		if err := server.SendTo(id, msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stage != 3 || got.Payload[0] != byte(id) {
			t.Fatalf("client %d received %+v", id, got)
		}
	}

	// Spoofing protection: the From field is overwritten by the endpoint.
	if err := clients[9].Send(Frame{From: 7, Stage: 1, Payload: []byte("spoof")}); err != nil {
		t.Fatal(err)
	}
	f, err = server.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.From != 9 {
		t.Fatalf("spoofed From accepted: %d", f.From)
	}
}

func TestMemoryTransport(t *testing.T) {
	n := NewMemoryNetwork(16)
	clients := map[uint64]ClientConn{}
	for _, id := range []uint64{7, 9} {
		c, err := n.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		clients[id] = c
	}
	testPair(t, n.Server(), clients)
}

func TestMemoryDuplicateID(t *testing.T) {
	n := NewMemoryNetwork(4)
	if _, err := n.Connect(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect(1); err == nil {
		t.Fatal("duplicate id should be rejected")
	}
}

func TestMemoryClosedClient(t *testing.T) {
	n := NewMemoryNetwork(4)
	c, _ := n.Connect(1)
	c.Close()
	if err := c.Send(Frame{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := n.Server().SendTo(1, Frame{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send to closed client: %v", err)
	}
}

func TestTCPTransport(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clients := map[uint64]ClientConn{}
	for _, id := range []uint64{7, 9} {
		c, err := DialTCP(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[id] = c
	}
	// Give the handshakes a moment to register.
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Clients()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	testPair(t, srv, clients)
}

func TestTCPLargeFrame(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.Send(Frame{Stage: 1, Payload: big}); err != nil {
			t.Error(err)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := srv.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(f.Payload, big) {
		t.Fatal("large frame corrupted")
	}
}

func TestTCPClientDisappears(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialTCP(srv.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Clients()) < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	// Eventually the server drops the client from its roster.
	for time.Now().Before(deadline) {
		if len(srv.Clients()) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("server never noticed the dropped client")
}

// TestDialRetry: a dial whose budget runs out says how many attempts it
// made and wraps the last dial error, and a client dialling before its
// server listens keeps retrying and connects once the listener opens.
func TestDialRetry(t *testing.T) {
	// A port that was free a moment ago, with nothing listening on it.
	probe, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	t.Run("budget runs out", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		_, err := DialRetry(ctx, addr, 4)
		var dialErr *net.OpError
		if !errors.Is(err, context.DeadlineExceeded) || !errors.As(err, &dialErr) || dialErr.Op != "dial" {
			t.Fatalf("error %v wraps neither the deadline nor the last dial error", err)
		}
		var n int
		if m := regexp.MustCompile(`after (\d+) attempts`).FindStringSubmatch(err.Error()); m != nil {
			n, _ = strconv.Atoi(m[1])
		}
		if n < 2 {
			t.Fatalf("error %q does not count its attempts (at 0 and 50–75 ms at least)", err)
		}
	})

	t.Run("late listener", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		type dialed struct {
			c   *TCPClient
			err error
		}
		done := make(chan dialed, 1)
		go func() {
			c, err := DialRetry(ctx, addr, 4)
			done <- dialed{c, err}
		}()
		time.Sleep(200 * time.Millisecond) // the first attempts are refused
		srv, err := ListenTCP(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		d := <-done
		if d.err != nil {
			t.Fatal(d.err)
		}
		defer d.c.Close()
		for deadline := time.Now().Add(2 * time.Second); len(srv.Clients()) == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the late listener never registered the client")
			}
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{From: 42, Stage: 5, Payload: []byte("payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || out.Stage != in.Stage || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	// Forge an oversized header.
	hdr := make([]byte, 20)
	hdr[12] = 0xff
	hdr[13] = 0xff
	hdr[14] = 0xff
	hdr[15] = 0xff
	hdr[16] = 0x01
	buf.Write(hdr)
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("oversized frame header should be rejected")
	}
}

func TestServerRecvTimeout(t *testing.T) {
	n := NewMemoryNetwork(4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := n.Server().Recv(ctx); err == nil {
		t.Fatal("Recv should respect the context deadline")
	}
}

// tcpPair returns a connected client and its server.
func tcpPair(t *testing.T, id uint64) (*TCPServer, *TCPClient) {
	t.Helper()
	srv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialTCP(srv.Addr(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for deadline := time.Now().Add(5 * time.Second); len(srv.Clients()) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
	}
	return srv, c
}

// TestTCPClientRecvAfterCancelledRecv: a Recv whose context fired must
// not cost the connection a frame. With a reader per Recv, the abandoned
// one swallowed the next frame (the client then saw stage 2 and never
// stage 1) and raced the following Recv for the socket.
func TestTCPClientRecvAfterCancelledRecv(t *testing.T) {
	srv, c := tcpPair(t, 4)
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv on an idle connection: %v", err)
	}
	for stage := 1; stage <= 2; stage++ {
		if err := srv.SendTo(4, Frame{Stage: stage, Payload: []byte{byte(stage), 0xEE}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancelAll := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelAll()
	for stage := 1; stage <= 2; stage++ {
		f, err := c.Recv(ctx)
		if err != nil {
			t.Fatalf("frame %d: %v", stage, err)
		}
		if f.Stage != stage || !bytes.Equal(f.Payload, []byte{byte(stage), 0xEE}) {
			t.Fatalf("frame %d arrived as %+v", stage, f)
		}
	}
}

// TestTCPClientRecvCancelledMidFrame: the same for a Recv that gives up
// while a 512 KiB frame is half on the wire — the frame arrives whole at
// the next Recv, followed by its successor.
func TestTCPClientRecvCancelledMidFrame(t *testing.T) {
	srv, c := tcpPair(t, 4)
	big := make([]byte, 512<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	// The server's half of the socket, to write the frame in two parts.
	srv.mu.Lock()
	raw := srv.conns[4]
	srv.mu.Unlock()
	var wire bytes.Buffer
	if err := writeFrame(&wire, Frame{Stage: 1, Payload: big}); err != nil {
		t.Fatal(err)
	}
	half := wire.Len() / 2
	if _, err := raw.Write(wire.Bytes()[:half]); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Recv(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Recv of a half-arrived frame: %v", err)
	}
	if _, err := raw.Write(wire.Bytes()[half:]); err != nil {
		t.Fatal(err)
	}
	if err := srv.SendTo(4, Frame{Stage: 2, Payload: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	ctx, cancelAll := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelAll()
	f, err := c.Recv(ctx)
	if err != nil || f.Stage != 1 || !bytes.Equal(f.Payload, big) {
		t.Fatalf("the interrupted frame: stage %d, %d bytes, err %v", f.Stage, len(f.Payload), err)
	}
	f, err = c.Recv(ctx)
	if err != nil || f.Stage != 2 || string(f.Payload) != "after" {
		t.Fatalf("the frame after it: %+v, err %v", f, err)
	}
}

// TestMemoryNetworkSendDoesNotAlias: the memory network copies like a
// socket does, in both directions — what the sender does to its payload
// after Send/SendTo returns cannot reach the receiver.
func TestMemoryNetworkSendDoesNotAlias(t *testing.T) {
	n := NewMemoryNetwork(4)
	c, err := n.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Server()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	up := []byte("client to server")
	if err := c.Send(Frame{Stage: 1, Payload: up}); err != nil {
		t.Fatal(err)
	}
	copy(up, "XXXXXXXXXXXXXXXX")
	if f, err := srv.Recv(ctx); err != nil || string(f.Payload) != "client to server" {
		t.Fatalf("server received %q, err %v", f.Payload, err)
	}

	down := []byte("server to client")
	for i := 0; i < 2; i++ { // sent twice: two independent frames
		if err := srv.SendTo(1, Frame{Stage: 2, Payload: down}); err != nil {
			t.Fatal(err)
		}
	}
	copy(down, "YYYYYYYYYYYYYYYY")
	first, err := c.Recv(ctx)
	if err != nil || string(first.Payload) != "server to client" {
		t.Fatalf("client received %q, err %v", first.Payload, err)
	}
	copy(first.Payload, "ZZZZZZZZZZZZZZZZ")
	if second, err := c.Recv(ctx); err != nil || string(second.Payload) != "server to client" {
		t.Fatalf("the duplicate arrived as %q, err %v", second.Payload, err)
	}
}

// TestMemorySendToClosedClientFullInbox: a client that closed with its
// inbox full must fail the server's send, not hang it.
func TestMemorySendToClosedClientFullInbox(t *testing.T) {
	n := NewMemoryNetwork(1)
	c, err := n.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	srv := n.Server()
	if err := srv.SendTo(1, Frame{Stage: 1}); err != nil { // fills the inbox
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- srv.SendTo(1, Frame{Stage: 2}) }() // blocks on the full inbox
	time.Sleep(10 * time.Millisecond)                      // usually long enough to be blocked; either order must end in ErrClosed
	c.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("send to a closed client: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendTo hung on a closed client's full inbox")
	}
}
