package transport

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// drainLeases empties the frame list, so a test sees only its own buffers.
func drainLeases() {
	frames.mu.Lock()
	frames.free, frames.retained = nil, 0
	frames.mu.Unlock()
}

func retained() int { return held(frames) }

// held returns the elements l holds.
func held[T any](l *FreeList[T]) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.retained
}

// sameBuffer reports whether two slices start at the same backing element.
func sameBuffer[T any](a, b []T) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b)
}

// TestLeaseRoundTrip: a released slice comes back for its size class and
// for no other; an off-class slice, one over the list's bound and one above
// its largest class are dropped. It runs on the frames, through lease and
// Release, and on a list of words, whose classes and bound count words.
func TestLeaseRoundTrip(t *testing.T) {
	drainLeases()
	defer drainLeases()
	t.Run("frames", func(t *testing.T) {
		checkRoundTrip(t, frames, lease, Release, []int{0, 1, 64, 65, 1000, 512<<10 + 14, maxLease})
	})
	t.Run("words", func(t *testing.T) {
		words := NewFreeList[uint64](1<<16, 1<<18)
		checkRoundTrip(t, words, words.Lease, words.Release, []int{0, 1, 64, 65, 1000, 8<<10 + 3, 1 << 16})
	})
}

func checkRoundTrip[T any](t *testing.T, l *FreeList[T], lease func(int) []T, release func([]T), sizes []int) {
	for _, n := range sizes {
		class := leaseClass(n)
		if class < n || class < minLease || leaseClass(class) != class || (n > minLease && class-n > n/8) {
			t.Fatalf("leaseClass(%d) = %d", n, class)
		}
		a := lease(n)
		if len(a) != n || cap(a) != class {
			t.Fatalf("lease(%d): len %d cap %d, want cap %d", n, len(a), cap(a), class)
		}
		release(a)
		if held(l) != class {
			t.Fatalf("released %d-element lease not retained (%d elements held)", n, held(l))
		}
		if other := lease(2 * class); sameBuffer(a, other) {
			t.Fatalf("a class-%d slice served a class-%d lease", class, leaseClass(2*class))
		}
		// The same class gets it back, whatever length was asked for.
		if b := lease(class); !sameBuffer(a, b) || len(b) != class {
			t.Fatalf("class %d: released slice did not come back", class)
		}
		if held(l) != 0 {
			t.Fatalf("free list holds %d elements after the lease was taken", held(l))
		}
	}

	// Off-class: a plain make, and a sub-slice that lost its head.
	release(make([]T, 100))
	release(lease(1000)[8:])
	release(nil)
	if held(l) != 0 {
		t.Fatalf("an off-class slice was kept (%d elements held)", held(l))
	}

	// Above the largest class: a plain make, never kept.
	big := lease(l.maxItem + 1)
	if len(big) != l.maxItem+1 || cap(big) != l.maxItem+1 {
		t.Fatalf("oversize lease: len %d cap %d", len(big), cap(big))
	}
	release(big)
	if held(l) != 0 {
		t.Fatal("a slice above the largest class was kept")
	}

	// Over the bound: the list never holds more than maxRetained elements,
	// and drops what would take it over.
	n := l.maxItem / 4
	kept := make([][]T, 0, l.maxRetained/n+2)
	for i := 0; i < cap(kept); i++ {
		kept = append(kept, lease(n))
	}
	for _, s := range kept {
		release(s)
	}
	if got := held(l); got > l.maxRetained || got < l.maxRetained-n {
		t.Fatalf("free list holds %d elements, bound %d", got, l.maxRetained)
	}
	for range l.maxRetained / n {
		lease(n)
	}
	if held(l) != 0 {
		t.Fatalf("free list holds %d elements after every kept slice was leased", held(l))
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
