// Package transport carries protocol messages between the server and
// clients over a star topology (all client↔client traffic is relayed by
// the server, as in the paper's server-mediated network, §3.3).
//
// Two implementations are provided: an in-memory transport (channels) used
// by simulations and tests, and a TCP transport (length-prefixed binary
// frames) used by the deployment-flavor binaries. Both present the same
// interfaces, so the stage walkers in package engine are transport-
// agnostic.
package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"unsafe"

	"repro/internal/endian"
)

// Frame is one protocol message on the wire. Payload encoding is the
// caller's concern (the binary codecs of packages core, combine and
// transcript).
//
// Ownership: a transport never retains Payload after Send/SendTo returns,
// and every frame Recv yields is exclusively the receiver's, to hand back
// with Release when it is done (lease.go).
type Frame struct {
	From    uint64
	Stage   int
	Payload []byte
}

// ClientConn is a client's connection to the server.
type ClientConn interface {
	// Send delivers a frame to the server.
	Send(Frame) error
	// Recv blocks for the next frame from the server.
	Recv(ctx context.Context) (Frame, error)
	// Close severs the connection (used to exercise dropout).
	Close() error
}

// ServerConn is the server's endpoint.
type ServerConn interface {
	// SendTo delivers a frame to one client.
	SendTo(client uint64, f Frame) error
	// Recv blocks for the next frame from any client. Frames from closed
	// clients stop arriving; callers use deadlines/thresholds, as the
	// protocol prescribes.
	Recv(ctx context.Context) (Frame, error)
	// Clients lists the currently connected client ids.
	Clients() []uint64
	// Close shuts the server endpoint down.
	Close() error
}

// ErrClosed is returned on use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// --- wire framing (shared by the TCP transport) ---

const maxFrameBytes = 1 << 28 // 256 MiB: above any chunked update we send

// writeFrame writes a length-prefixed frame. Header and payload go out in
// one gathered write (writev on TCP connections), so a frame never splits
// into a 20-byte segment followed by the payload.
func writeFrame(w io.Writer, f Frame) error {
	var hdr [20]byte
	if len(f.Payload) > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(f.Payload))
	}
	binary.LittleEndian.PutUint64(hdr[0:], f.From)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.Stage))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(len(f.Payload)))
	bufs := net.Buffers{hdr[:], f.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads a length-prefixed frame into a leased payload, which it
// hands back itself when the payload does not arrive whole.
func readFrame(r io.Reader) (Frame, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	if n > maxFrameBytes {
		return Frame{}, fmt.Errorf("transport: declared frame size %d exceeds limit", n)
	}
	f := Frame{
		From:    binary.LittleEndian.Uint64(hdr[0:]),
		Stage:   int(int32(binary.LittleEndian.Uint32(hdr[8:]))),
		Payload: lease(int(n)),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		Release(f.Payload)
		return Frame{}, err
	}
	return f, nil
}

// --- bulk little-endian word codecs (shared by the binary payload codecs) ---

// wordsLE returns the backing memory of xs as wire bytes when the host is
// little-endian (the slab already is its own encoding), nil otherwise.
func wordsLE(xs []uint64) []byte {
	if !endian.HostLittle || len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*8)
}

// appendUint64sLE appends xs to dst in little-endian wire order. On
// little-endian hosts the word slab is copied in one memmove; the
// big-endian fallback encodes per element.
func appendUint64sLE(dst []byte, xs []uint64) []byte {
	if slab := wordsLE(xs); slab != nil {
		return append(dst, slab...)
	}
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// WriteUint64sLE writes xs to w in little-endian wire order without
// building the encoding: the whole slab in one Write on little-endian
// hosts, a Write per word otherwise. w must not retain what it is given
// (a hash.Hash does not).
func WriteUint64sLE(w io.Writer, xs []uint64) error {
	if slab := wordsLE(xs); slab != nil {
		_, err := w.Write(slab)
		return err
	}
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// AppendBlob appends a 16-bit-length-prefixed byte blob to dst — the
// small-field codec of Writer.Blob and the handshake signature section
// (core/handshake.go). The caller guarantees len(b) fits a uint16 (all
// users carry fixed-size crypto material: 32-byte keys, 64-byte
// signatures); larger blobs are a programmer error and panic.
func AppendBlob(dst, b []byte) []byte {
	if len(b) > 1<<16-1 {
		panic(fmt.Sprintf("transport: blob of %d bytes exceeds uint16 framing", len(b)))
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(b)))
	dst = append(dst, l[:]...)
	return append(dst, b...)
}

// decodeBlob decodes a blob written by AppendBlob into a fresh slice,
// returning the remaining bytes. maxLen caps the declared length so a
// hostile prefix cannot force a large allocation; a zero-length blob
// decodes as nil.
func decodeBlob(src []byte, maxLen int) ([]byte, []byte, error) {
	if len(src) < 2 {
		return nil, nil, fmt.Errorf("transport: blob header truncated")
	}
	n := int(binary.LittleEndian.Uint16(src))
	src = src[2:]
	if n > maxLen {
		return nil, nil, fmt.Errorf("transport: declared blob of %d bytes exceeds cap %d", n, maxLen)
	}
	if len(src) < n {
		return nil, nil, fmt.Errorf("transport: blob truncated")
	}
	var out []byte
	if n > 0 {
		out = append([]byte(nil), src[:n]...)
	}
	return out, src[n:], nil
}

// DecodeUint64sLE decodes n little-endian uint64 words from src into a
// fresh slice, returning the remaining bytes. It is the inverse of
// appendUint64sLE.
func DecodeUint64sLE(src []byte, n int) ([]uint64, []byte, error) {
	if n < 0 || len(src) < n*8 {
		return nil, nil, fmt.Errorf("transport: word slab truncated: need %d bytes, have %d", n*8, len(src))
	}
	if n == 0 {
		return nil, src, nil
	}
	out := make([]uint64, n)
	if endian.HostLittle {
		dst := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), n*8)
		copy(dst, src[:n*8])
	} else {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(src[i*8:])
		}
	}
	return out, src[n*8:], nil
}
