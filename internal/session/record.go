package session

import (
	"fmt"

	"repro/internal/dh"
	"repro/internal/transport"
)

// At-rest records (PROTOCOL.md, "Session persistence at rest"). Every
// record is [Magic][tag][version] followed by fixed little-endian fields
// and count-prefixed sections, in the transport.Reader/Writer idiom:
// allocation caps against hostile prefixes, no count accepted that the
// remaining payload cannot carry. The records themselves are SecAgg's
// (secagg/persist.go); the sections they are built from that hold this
// package's types — a roster and a secret cache — are encoded and decoded
// here, once.
const (
	// Magic leads every at-rest session record.
	Magic = 0xDA

	// maxEntries caps decoded section counts (roster members, cached
	// secrets): protocol reality is one entry per sampled client.
	maxEntries = 1 << 20
	// maxBlob caps a cached secret's key.
	maxBlob = 1 << 16
	// maxEntryBlob caps one key or signature of a roster entry (public
	// keys are 32 bytes, signatures 64).
	maxEntryBlob = 1 << 10
)

// WriteEntry appends one roster entry (PROTOCOL.md, "Shared layouts"):
// [From:8][blob CipherPub][blob MaskPub][blob Signature]. It is the
// stage-0 advertisement on the wire and a roster member at rest alike.
func WriteEntry(w *transport.Writer, e Entry) {
	w.Uint64(e.From)
	w.Blob(e.CipherPub, maxEntryBlob)
	w.Blob(e.MaskPub, maxEntryBlob)
	w.Blob(e.Signature, maxEntryBlob)
}

// ReadEntry decodes one WriteEntry entry.
func ReadEntry(r *transport.Reader) Entry {
	return Entry{From: r.Uint64(), CipherPub: r.Blob(maxEntryBlob),
		MaskPub: r.Blob(maxEntryBlob), Signature: r.Blob(maxEntryBlob)}
}

// WriteRoster appends a roster section: [n:4] then n WriteEntry entries.
func WriteRoster(w *transport.Writer, roster []Entry) {
	w.Count(len(roster), maxEntries)
	for _, e := range roster {
		WriteEntry(w, e)
	}
}

// ReadRoster decodes a roster section (nil when empty); the minimum entry
// is an id plus three empty blobs.
func ReadRoster(r *transport.Reader) []Entry {
	n := r.Count(8+3*2, maxEntries)
	if n == 0 {
		return nil
	}
	roster := make([]Entry, n)
	for i := range roster {
		roster[i] = ReadEntry(r)
	}
	return roster
}

// WriteRecord appends the secret section: [n:4] then per secret, in
// ascending key order (a deterministic encoding),
// [blob key][step:8][secret:32].
func (c *Secrets) WriteRecord(w *transport.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.Count(len(c.m), maxEntries)
	for _, k := range transport.SortedKeys(c.m) {
		s := c.m[k]
		w.Blob([]byte(k), maxBlob)
		w.Uint64(s.step)
		w.Raw(s.sec[:]...)
	}
}

// ReadRecord decodes a secret section into c, replacing its contents.
// Each entry costs at least 2+8+SharedSize bytes, so a count the payload
// cannot carry is rejected before the map is allocated; keys must ascend
// strictly, the one order WriteRecord emits.
func (c *Secrets) ReadRecord(r *transport.Reader) {
	n := r.Count(2+8+dh.SharedSize, maxEntries)
	m := make(map[string]ratchetedSecret, n)
	var prev string
	for i := 0; i < n; i++ {
		key := string(r.Blob(maxBlob))
		s := ratchetedSecret{step: r.Uint64()}
		copy(s.sec[:], r.Raw(dh.SharedSize))
		if i > 0 && key <= prev {
			r.Fail(fmt.Errorf("session: persisted secret keys not strictly ascending"))
		}
		m[key], prev = s, key
	}
	c.mu.Lock()
	c.m = m
	c.mu.Unlock()
}
