package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"net"
	"sync"
	"time"
)

// TCPServer is the server endpoint of the TCP transport. Clients dial in
// and introduce themselves with an 8-byte id preamble; every subsequent
// exchange is a length-prefixed Frame.
type TCPServer struct {
	ln net.Listener

	mu      sync.Mutex
	conns   map[uint64]net.Conn
	inbox   chan Frame
	closed  bool
	readers sync.WaitGroup
}

// ListenTCP starts a server on addr (e.g. "127.0.0.1:0").
func ListenTCP(addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &TCPServer{
		ln:    ln,
		conns: make(map[uint64]net.Conn),
		inbox: make(chan Frame, 1024),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address (for clients to dial).
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.handshake(conn)
	}
}

func (s *TCPServer) handshake(conn net.Conn) {
	var idBuf [8]byte
	if _, err := readFull(conn, idBuf[:]); err != nil {
		conn.Close()
		return
	}
	id := binary.LittleEndian.Uint64(idBuf[:])
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if old, dup := s.conns[id]; dup {
		old.Close()
	}
	s.conns[id] = conn
	s.readers.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.readers.Done()
		for {
			f, err := readFrame(conn)
			if err != nil {
				s.mu.Lock()
				if s.conns[id] == conn {
					delete(s.conns, id)
				}
				s.mu.Unlock()
				conn.Close()
				return
			}
			f.From = id // trust the connection, not the frame header
			s.inbox <- f
		}
	}()
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SendTo implements ServerConn.
func (s *TCPServer) SendTo(client uint64, f Frame) error {
	s.mu.Lock()
	conn, ok := s.conns[client]
	s.mu.Unlock()
	if !ok {
		return ErrClosed
	}
	return writeFrame(conn, f)
}

// Recv implements ServerConn.
func (s *TCPServer) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-s.inbox:
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Clients implements ServerConn.
func (s *TCPServer) Clients() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SortedKeys(s.conns)
}

// Close implements ServerConn.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.conns = map[uint64]net.Conn{}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return s.ln.Close()
}

// TCPClient is a client endpoint. One reader goroutine per connection
// feeds frames, in order, so a Recv whose context fires abandons nothing:
// the frame it was waiting for — half-arrived or not — goes to the next
// Recv.
type TCPClient struct {
	id   uint64
	conn net.Conn

	frames  chan Frame    // the reader's output; closed after readErr is set
	readErr error         // why the reader stopped
	done    chan struct{} // closed by Close; stops a reader nobody drains

	mu     sync.Mutex
	closed bool
}

// DialTCP connects to the server and introduces the client id. Errors name
// the target address and the client id, so the retry loops layered on top
// (DialRetry, the dordis-node reconnect path) log something actionable.
func DialTCP(addr string, id uint64) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s (client %d): %w", addr, id, err)
	}
	var idBuf [8]byte
	binary.LittleEndian.PutUint64(idBuf[:], id)
	if _, err := conn.Write(idBuf[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: hello write to %s (client %d): %w", addr, id, err)
	}
	c := &TCPClient{id: id, conn: conn, frames: make(chan Frame), done: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// readLoop runs until the connection fails or Close is called.
func (c *TCPClient) readLoop() {
	defer close(c.frames)
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.readErr = err
			return
		}
		select {
		case c.frames <- f:
		case <-c.done:
			Release(f.Payload)
			c.readErr = ErrClosed
			return
		}
	}
}

// DialRetry's backoff: the first retry waits dialBaseDelay, each later one
// twice the one before up to dialMaxDelay, plus a uniform random fraction
// of up to dialJitter of it, decorrelating a thundering herd of
// reconnecting clients.
const (
	dialBaseDelay = 50 * time.Millisecond
	dialMaxDelay  = 2 * time.Second
	dialJitter    = 0.5
)

// DialRetry dials the server with capped exponential backoff until it
// succeeds or ctx is done — the retrying counterpart of DialTCP that turns
// a transient disconnect (server restart, network blip, dropped NAT
// binding) into a delay instead of a process death. The context carries
// the overall deadline; when it runs out, the error names the attempt
// count and wraps both the context's error and the last dial error.
func DialRetry(ctx context.Context, addr string, id uint64) (*TCPClient, error) {
	delay := dialBaseDelay
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("transport: dial retry to %s (client %d) gave up after %d attempts: %w (last: %w)",
					addr, id, attempt, err, lastErr)
			}
			return nil, fmt.Errorf("transport: dial retry to %s (client %d): %w", addr, id, err)
		}
		c, err := DialTCP(addr, id)
		if err == nil {
			return c, nil
		}
		lastErr = err
		timer := time.NewTimer(delay + time.Duration(mrand.Float64()*dialJitter*float64(delay)))
		select {
		case <-ctx.Done():
			timer.Stop()
		case <-timer.C:
		}
		delay = min(2*delay, dialMaxDelay)
	}
}

// Send implements ClientConn.
func (c *TCPClient) Send(f Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	f.From = c.id
	return writeFrame(c.conn, f)
}

// Recv implements ClientConn.
func (c *TCPClient) Recv(ctx context.Context) (Frame, error) {
	select {
	case f, ok := <-c.frames:
		if !ok {
			return Frame{}, c.readErr
		}
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Close implements ClientConn.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	return c.conn.Close()
}

var (
	_ ServerConn = (*TCPServer)(nil)
	_ ClientConn = (*TCPClient)(nil)
)
