package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// Reader and Writer are the shared idiom of the binary payload codecs
// (core's 0xD0 family, the at-rest session records' 0xDA, secagg's 0xDB
// share bundle, the combiner's 0xDC, the transcript's 0xDD): little-endian
// integers, count-prefixed sections, and — on the decode side — no
// allocation a length prefix asks for that the remaining bytes cannot
// back. A family whose layouts evolve leads with [magic][tag][version]
// (NewVersionedWriter, NewVersionedReader) and decodes only its own
// version.

// Reader walks one payload. The first read the payload cannot satisfy
// poisons it — later reads return zero values — so a decoder checks Done
// once instead of after every field.
type Reader struct {
	b   []byte
	err error
}

// NewReader starts a decode of p, which must lead with [magic][tag].
func NewReader(p []byte, magic, tag byte) *Reader {
	if len(p) < 2 || p[0] != magic || p[1] != tag {
		return &Reader{err: fmt.Errorf("transport: not a 0x%02X payload with tag 0x%02X", magic, tag)}
	}
	return &Reader{b: p[2:]}
}

// NewVersionedReader starts a decode of p, which must lead with
// [magic][tag][version].
func NewVersionedReader(p []byte, magic, tag, version byte) *Reader {
	r := NewReader(p, magic, tag)
	if v := r.Byte(); v != version {
		r.Fail(fmt.Errorf("transport: 0x%02X payload version %d, want %d", magic, v, version))
	}
	return r
}

// Fail poisons the reader with err (the first failure wins).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Raw reads n bytes without copying them (nil when the payload is short).
func (r *Reader) Raw(n int) []byte {
	if len(r.b) < n {
		r.Fail(fmt.Errorf("transport: payload truncated"))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint16 reads one 2-byte integer.
func (r *Reader) Uint16() uint16 {
	if b := r.Raw(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// Uint32 reads one 4-byte integer that is a value, not a section count.
func (r *Reader) Uint32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads one 8-byte integer.
func (r *Reader) Uint64() uint64 {
	if b := r.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Count reads a section's 4-byte entry count and rejects one above max or
// one the remaining bytes cannot carry at minEntry bytes each, before the
// caller allocates for it.
func (r *Reader) Count(minEntry, max int) int {
	if len(r.b) < 4 {
		r.Fail(fmt.Errorf("transport: section header truncated"))
		return 0
	}
	n := int(binary.LittleEndian.Uint32(r.b))
	r.b = r.b[4:]
	if n > max || n > len(r.b)/minEntry {
		r.Fail(fmt.Errorf("transport: declared section of %d entries exceeds the payload or its cap %d", n, max))
		return 0
	}
	return n
}

// Words reads a [n:4][n×8] slab of at most max words (nil when empty).
func (r *Reader) Words(max int) []uint64 {
	n := r.Count(8, max)
	out, rest, err := DecodeUint64sLE(r.b, n)
	if err != nil {
		r.Fail(err)
		return nil
	}
	r.b = rest
	return out
}

// WordsLE reads a [n:4][n×8] slab of at most max words without copying
// it: the n little-endian words as they lie in the payload, at whatever
// alignment. The one decoder that borrows (core's masked input) uses it;
// what it returns dies with the payload.
func (r *Reader) WordsLE(max int) []byte {
	return r.Raw(8 * r.Count(8, max))
}

// Bytes reads a [len:4][bytes] field of at most max bytes into a fresh
// slice (nil when empty).
func (r *Reader) Bytes(max int) []byte {
	n := r.Count(1, max)
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// Blob reads a [len:2][bytes] field of at most max bytes (AppendBlob's
// inverse; nil when empty).
func (r *Reader) Blob(max int) []byte {
	out, rest, err := decodeBlob(r.b, max)
	if err != nil {
		r.Fail(err)
		return nil
	}
	r.b = rest
	return out
}

// Key reads the i-th key of a map section and rejects one that does not
// exceed its predecessor — duplicates and the non-canonical orderings of
// the same map alike. prev carries the predecessor between calls.
func (r *Reader) Key(i int, prev *uint64) uint64 {
	k := r.Uint64()
	if i > 0 && k <= *prev {
		r.Fail(fmt.Errorf("transport: section keys not strictly ascending at %d", k))
	}
	*prev = k
	return k
}

// SortedKeys returns m's keys ascending: the one order Key accepts, so an
// encoder emits each map section in it, and the order anything else that
// lists a map's keys deterministically uses.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Done ends the decode: trailing bytes are an error like any other.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.Fail(fmt.Errorf("transport: %d trailing bytes", len(r.b)))
	}
	return r.err
}

// Writer builds one payload; a field over its cap poisons it and Done
// reports the first such error.
type Writer struct {
	b   []byte
	err error
}

// NewWriter starts a payload that leads with [magic][tag] in a leased
// buffer; size is the expected body length, so a dim-length payload never
// outgrows its lease.
func NewWriter(magic, tag byte, size int) *Writer {
	return &Writer{b: append(lease(2 + size)[:0], magic, tag)}
}

// NewVersionedWriter starts a payload that leads with [magic][tag][version]
// (NewWriter's, one byte longer).
func NewVersionedWriter(magic, tag, version byte, size int) *Writer {
	w := NewWriter(magic, tag, 1+size)
	w.Raw(version)
	return w
}

// Fail poisons the writer with err (the first failure wins).
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Raw appends bytes as they are.
func (w *Writer) Raw(b ...byte) { w.b = append(w.b, b...) }

// Uint16 appends one 2-byte integer.
func (w *Writer) Uint16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }

// Uint32 appends one 4-byte integer that is a value, not a section count.
func (w *Writer) Uint32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// Uint64 appends one 8-byte integer.
func (w *Writer) Uint64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Count appends a section's 4-byte entry count, at most max.
func (w *Writer) Count(n, max int) {
	if n > max {
		w.Fail(fmt.Errorf("transport: section of %d entries exceeds wire cap %d", n, max))
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n))
}

// Words appends a [n:4][n×8] slab of at most max words.
func (w *Writer) Words(xs []uint64, max int) {
	w.Count(len(xs), max)
	w.b = appendUint64sLE(w.b, xs)
}

// Bytes appends a [len:4][bytes] field of at most max bytes.
func (w *Writer) Bytes(b []byte, max int) {
	w.Count(len(b), max)
	w.b = append(w.b, b...)
}

// Blob appends a [len:2][bytes] field of at most max bytes (and never
// more than the 16-bit length can say).
func (w *Writer) Blob(b []byte, max int) {
	if len(b) > max || len(b) > 1<<16-1 {
		w.Fail(fmt.Errorf("transport: blob of %d bytes exceeds cap %d", len(b), max))
		b = nil
	}
	w.b = AppendBlob(w.b, b)
}

// Done returns the payload, or the first error a field raised.
func (w *Writer) Done() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}
