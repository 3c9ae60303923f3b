package session

import (
	"sync"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/prg"
)

// ratchetedSecret is a cached pairwise secret at a given ratchet step.
type ratchetedSecret struct {
	step uint64
	sec  [dh.SharedSize]byte
	// built is what the cache's user builds from sec — an AEAD key (KeyAt)
	// or a mask stream (StreamAt), one kind per cache; nil until asked for
	// at this step.
	built any
}

// advanceTo returns the secret ratcheted forward to step. It never goes
// backwards; callers re-derive from the key pair when an earlier step is
// needed (drivers advance monotonically, so that path is cold).
func (r ratchetedSecret) advanceTo(step uint64) ratchetedSecret {
	for r.step < step {
		r.sec, r.built = dh.Ratchet(r.sec), nil
		r.step++
	}
	return r
}

// Secrets caches pairwise X25519 secrets by a caller-chosen key (the
// peer's public key, or a canonical key pair) together with the ratchet
// step each was last advanced to. It is the one cache every session uses,
// so an m-chunk round agrees once per pair instead of m times and a
// resumed round not at all. The zero value is an empty cache. Safe for
// concurrent use — mask expansion fans agreements across a worker pool.
type Secrets struct {
	mu sync.Mutex
	m  map[string]ratchetedSecret
}

// KeyAt resolves the secret cached under key at the given ratchet step as
// a channel's AEAD key (see at for the lookup). The constructed
// key (AES key schedule, GCM table) is cached beside the secret until the
// next ratchet step, so every seal and open of a round — all its chunks,
// both directions — shares one.
func (c *Secrets) KeyAt(key string, step uint64,
	agree func() ([dh.SharedSize]byte, error)) (*aead.Key, error) {

	r, err := c.at(key, step, agree, func(sec [dh.SharedSize]byte) any { return aead.NewKey(sec) })
	if err != nil {
		return nil, err
	}
	return r.built.(*aead.Key), nil
}

// StreamAt is KeyAt for a secret that keys a mask stream: newStream(secret)
// is built once per ratchet step and cached beside the secret, so the
// chunks of a round read their windows of one keyed stream. Callers share
// the stream and only aim cursors at it (prg.Stream.AtInto); none draws
// from it.
func (c *Secrets) StreamAt(key string, step uint64, agree func() ([dh.SharedSize]byte, error),
	newStream func([dh.SharedSize]byte) *prg.Stream) (*prg.Stream, error) {

	r, err := c.at(key, step, agree, func(sec [dh.SharedSize]byte) any { return newStream(sec) })
	if err != nil {
		return nil, err
	}
	return r.built.(*prg.Stream), nil
}

// at resolves the secret under key at step and, when build is non-nil,
// what build makes of it: read under the lock; on a miss (or a request for
// an earlier step than the cached one, which only a non-monotonic driver
// produces) run agree outside the lock (it is the expensive part and
// deterministic, so a racing duplicate computes the identical value);
// ratchet forward to step; store only monotonically. A nil build resolves
// the secret alone — what a record reads back holds no built value.
func (c *Secrets) at(key string, step uint64,
	agree func() ([dh.SharedSize]byte, error), build func([dh.SharedSize]byte) any) (ratchetedSecret, error) {

	c.mu.Lock()
	r, ok := c.m[key]
	c.mu.Unlock()
	if ok && r.step == step && (r.built != nil || build == nil) {
		return r, nil // the warm path: nothing to derive, nothing to store
	}
	if !ok || r.step > step {
		raw, err := agree()
		if err != nil {
			return ratchetedSecret{}, err
		}
		r = ratchetedSecret{step: 0, sec: raw}
	}
	r = r.advanceTo(step)
	if build != nil && r.built == nil {
		r.built = build(r.sec)
	}
	c.mu.Lock()
	if cur, ok := c.m[key]; !ok || cur.step < r.step || (cur.step == r.step && cur.built == nil) {
		if c.m == nil {
			c.m = make(map[string]ratchetedSecret)
		}
		c.m[key] = r
	}
	c.mu.Unlock()
	return r, nil
}

// Delete drops the secret cached under key, if any.
func (c *Secrets) Delete(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}

// DeleteFunc drops every secret whose key del reports true for.
func (c *Secrets) DeleteFunc(del func(key string) bool) {
	c.mu.Lock()
	for k := range c.m {
		if del(k) {
			delete(c.m, k)
		}
	}
	c.mu.Unlock()
}

// Clear drops every cached secret.
func (c *Secrets) Clear() {
	c.mu.Lock()
	clear(c.m)
	c.mu.Unlock()
}
