package transport

import (
	"context"
	"sync"
)

// MemoryNetwork is an in-process star network: one server endpoint and any
// number of client endpoints, connected by buffered channels. It is safe
// for concurrent use. Like a socket, it copies: a sent payload is copied
// into a leased buffer, so sender and receiver never share memory and a
// frame sent twice arrives as two independent frames.
type MemoryNetwork struct {
	mu       sync.Mutex
	toServer chan Frame
	clients  map[uint64]*memoryClient
	closed   bool
}

// NewMemoryNetwork creates a network with the given per-direction buffer.
func NewMemoryNetwork(buffer int) *MemoryNetwork {
	if buffer < 1 {
		buffer = 64
	}
	return &MemoryNetwork{
		toServer: make(chan Frame, buffer),
		clients:  make(map[uint64]*memoryClient),
	}
}

// memoryClient implements ClientConn.
type memoryClient struct {
	id   uint64
	net  *MemoryNetwork
	in   chan Frame
	done chan struct{} // closed by Close; unblocks pending Recvs

	mu     sync.Mutex
	closed bool
}

// memoryServer implements ServerConn.
type memoryServer struct {
	net *MemoryNetwork
}

// Connect attaches a client with the given id and returns its endpoint.
func (n *MemoryNetwork) Connect(id uint64) (ClientConn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.clients[id]; dup {
		return nil, ErrClosed
	}
	c := &memoryClient{id: id, net: n, in: make(chan Frame, cap(n.toServer)), done: make(chan struct{})}
	n.clients[id] = c
	return c, nil
}

// copied returns f with its payload copied into a leased buffer.
func copied(f Frame) Frame {
	f.Payload = append(lease(len(f.Payload))[:0], f.Payload...)
	return f
}

// Server returns the server endpoint.
func (n *MemoryNetwork) Server() ServerConn {
	return &memoryServer{net: n}
}

func (c *memoryClient) Send(f Frame) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	f.From = c.id
	c.net.toServer <- copied(f) // blocks while the buffer is full (back-pressure)
	return nil
}

func (c *memoryClient) Recv(ctx context.Context) (Frame, error) {
	select {
	case f, ok := <-c.in:
		if !ok {
			return Frame{}, ErrClosed
		}
		return f, nil
	case <-c.done:
		// A closed endpoint fails pending reads immediately, like a real
		// socket — a killed client must not hang until its context expires.
		return Frame{}, ErrClosed
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

func (c *memoryClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	close(c.done)
	c.net.mu.Lock()
	delete(c.net.clients, c.id)
	c.net.mu.Unlock()
	return nil
}

func (s *memoryServer) SendTo(client uint64, f Frame) error {
	s.net.mu.Lock()
	c, ok := s.net.clients[client]
	s.net.mu.Unlock()
	if !ok {
		return ErrClosed
	}
	f = copied(f)
	select {
	case c.in <- f:
		return nil
	case <-c.done:
		// The recipient closed with its inbox full: nobody will drain it.
		Release(f.Payload)
		return ErrClosed
	}
}

func (s *memoryServer) Recv(ctx context.Context) (Frame, error) {
	select {
	case f := <-s.net.toServer:
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

func (s *memoryServer) Clients() []uint64 {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	return SortedKeys(s.net.clients)
}

func (s *memoryServer) Close() error {
	s.net.mu.Lock()
	defer s.net.mu.Unlock()
	s.net.closed = true
	return nil
}
