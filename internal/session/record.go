package session

import (
	"fmt"

	"repro/internal/dh"
	"repro/internal/transport"
)

// At-rest records (PROTOCOL.md, "Session persistence at rest"). Every
// record is [Magic][tag][version] followed by fixed little-endian fields
// and the count-prefixed sections below, in the transport.Reader/Writer
// idiom: allocation caps against hostile prefixes, no count accepted that
// the remaining payload cannot carry. SecAgg owns its client record's tag
// and the key material in it; the sections that hold shared state — and
// the server record, which holds nothing else — are encoded and decoded
// here, once.
const (
	// Magic leads every at-rest session record.
	Magic = 0xDA

	serverTag     = 0x56 // 'V': server session
	serverVersion = 1

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

// WriteRecord appends the client continuity section:
// [nextRatchet:8][flags:1 (bit 0: taint)][roster section].
func (c *ClientState) WriteRecord(w *transport.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var flags byte
	if c.taint {
		flags |= 1
	}
	w.Uint64(c.nextRatchet)
	w.Raw(flags)
	WriteRoster(w, c.roster)
}

// ReadRecord decodes a client continuity section into c.
func (c *ClientState) ReadRecord(r *transport.Reader) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextRatchet = r.Uint64()
	flags := r.Byte()
	if flags&^1 != 0 {
		r.Fail(fmt.Errorf("session: unknown continuity flag bits %#x", flags))
	}
	c.taint = flags&1 != 0
	c.roster = ReadRoster(r)
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

// MarshalBinary serializes the server record — only the state that makes a
// restarted aggregator resume instead of forcing a fleet re-key:
//
//   - the continuity state: derivation-point high-water mark and the
//     tainted-client set,
//   - the cached stage-0 roster and the client set it was sealed for
//     (so StateHashFor answers and advertise skipping still works).
//
// Nothing an embedding server session caches beyond that is ever part of
// the record, and for SecAgg that is deliberate: reconstructed mask key
// pairs and the pairwise secrets derived from them stay in memory only. A
// client's persisted private keys are its own; a server blob holding
// *other parties'* reconstructed keys would turn one store leak into the
// mask keys of every client the server ever unmasked. The information is
// also redundant: any key the server legitimately reconstructed came from
// survivor shares, and the taint set already records that it happened.
//
// A restored server therefore re-agrees on demand and keeps its taint: at
// the next handshake the tainted members partition as divergent, so a
// restart downgrades to per-edge re-key for exactly the edges that need it
// instead of a full fleet re-key. The blob still names the roster's public
// keys, so wrap it with sessionstore.Store like the client blobs.
func (s *ServerState) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := transport.NewVersionedWriter(Magic, serverTag, serverVersion, 0)
	w.Uint64(s.nextRatchet)
	WriteRoster(w, s.roster)
	w.Words(s.rosterIDs, maxEntries)
	w.Words(s.taintedLocked(), maxEntries)
	return w.Done()
}

// UnmarshalBinary replaces the state with a MarshalBinary record's.
func (s *ServerState) UnmarshalBinary(p []byte) error {
	r := transport.NewVersionedReader(p, Magic, serverTag, serverVersion)
	nextRatchet, roster := r.Uint64(), ReadRoster(r)
	rosterIDs, tainted := r.Words(maxEntries), r.Words(maxEntries)
	for i := 1; i < len(tainted); i++ {
		if tainted[i] <= tainted[i-1] {
			r.Fail(fmt.Errorf("session: tainted ids not strictly ascending"))
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("session: persisted server state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextRatchet, s.roster, s.rosterIDs = nextRatchet, roster, rosterIDs
	s.tainted = make(map[uint64]bool, len(tainted))
	for _, id := range tainted {
		s.tainted[id] = true
	}
	return nil
}
