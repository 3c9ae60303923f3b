package transport

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// drainLeases empties the free list, so a test sees only its own buffers.
func drainLeases() {
	leases.mu.Lock()
	leases.free, leases.retained = nil, 0
	leases.mu.Unlock()
}

func retained() int {
	leases.mu.Lock()
	defer leases.mu.Unlock()
	return leases.retained
}

// sameBuffer reports whether two slices start at the same backing byte.
func sameBuffer(a, b []byte) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestLeaseRoundTrip: a released buffer comes back for its size class and
// for no other; an off-class buffer, one over the free list's bound and one
// above the largest class are dropped.
func TestLeaseRoundTrip(t *testing.T) {
	drainLeases()
	defer drainLeases()

	for _, n := range []int{0, 1, 64, 65, 1000, 512<<10 + 14, maxLease} {
		class := leaseClass(n)
		if class < n || class < minLease || leaseClass(class) != class || (n > minLease && class-n > n/8) {
			t.Fatalf("leaseClass(%d) = %d", n, class)
		}
		a := lease(n)
		if len(a) != n || cap(a) != class {
			t.Fatalf("lease(%d): len %d cap %d, want cap %d", n, len(a), cap(a), class)
		}
		Release(a)
		if retained() != class {
			t.Fatalf("released %d-byte lease not retained (%d bytes held)", n, retained())
		}
		if other := lease(2 * class); sameBuffer(a, other) {
			t.Fatalf("a class-%d buffer served a class-%d lease", class, leaseClass(2*class))
		}
		// The same class gets it back, whatever length was asked for.
		if b := lease(class); !sameBuffer(a, b) || len(b) != class {
			t.Fatalf("class %d: released buffer did not come back", class)
		}
		if retained() != 0 {
			t.Fatalf("free list holds %d bytes after the lease was taken", retained())
		}
	}

	// Off-class: a plain make, and a sub-slice that lost its head.
	Release(make([]byte, 100))
	Release(lease(1000)[8:])
	Release(nil)
	if retained() != 0 {
		t.Fatalf("an off-class buffer was pooled (%d bytes held)", retained())
	}

	// Above the largest class: a plain make, never pooled.
	big := lease(maxLease + 1)
	if len(big) != maxLease+1 || cap(big) != maxLease+1 {
		t.Fatalf("oversize lease: len %d cap %d", len(big), cap(big))
	}
	Release(big)
	if retained() != 0 {
		t.Fatal("a buffer above the largest class was pooled")
	}

	// Over the bound: the free list never holds more than maxRetained.
	const n = 1 << 20
	held := make([][]byte, 0, maxRetained/n+2)
	for i := 0; i < cap(held); i++ {
		held = append(held, lease(n))
	}
	for _, b := range held {
		Release(b)
	}
	if got := retained(); got > maxRetained || got < maxRetained-n {
		t.Fatalf("free list holds %d bytes, bound %d", got, maxRetained)
	}
}

// TestReadFrameReleasesOnShortRead: a frame whose payload stops short
// hands its lease back, and the next frame of that class reuses it.
func TestReadFrameReleasesOnShortRead(t *testing.T) {
	drainLeases()
	defer drainLeases()

	var wire bytes.Buffer
	payload := bytes.Repeat([]byte{0xAB}, 3000)
	if err := writeFrame(&wire, Frame{From: 1, Stage: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	whole := wire.Bytes()
	if _, err := readFrame(bytes.NewReader(whole[:len(whole)-1])); err != io.ErrUnexpectedEOF {
		t.Fatalf("short frame: %v, want unexpected EOF", err)
	}
	if retained() != leaseClass(len(payload)) {
		t.Fatalf("short read kept its lease (%d bytes in the free list)", retained())
	}
	f, err := readFrame(bytes.NewReader(whole))
	if err != nil || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("whole frame: %v", err)
	}
	if retained() != 0 {
		t.Fatal("the whole frame did not reuse the released lease")
	}
	// A header alone is not a lease.
	if _, err := readFrame(bytes.NewReader(whole[:20])); err == nil || retained() != leaseClass(len(payload)) {
		t.Fatalf("payload-less frame: err %v, %d bytes held", err, retained())
	}
}

// TestWriterLeases: a payload a Writer built goes back to the free list and
// serves the next Writer of its class.
func TestWriterLeases(t *testing.T) {
	drainLeases()
	defer drainLeases()

	w := NewWriter(0xD0, 0x01, 12+8*100)
	w.Uint64(7)
	w.Words(make([]uint64, 100), 1<<20)
	p, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	Release(p)
	q, _ := NewWriter(0xD0, 0x02, 12+8*100).Done()
	if !sameBuffer(p, q) || len(q) != 2 {
		t.Fatal("a released payload did not serve the next writer of its class")
	}
}
