package session

import (
	"bytes"
	"crypto/rand"
	"sync"
	"testing"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/prg"
)

// TestSecretsMonotone: the cache serves a step below the cached one by
// re-agreeing, and never lets that lower step overwrite the higher one.
func TestSecretsMonotone(t *testing.T) {
	raw := [dh.SharedSize]byte{1, 2, 3}
	agreed := 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	var c Secrets
	at := func(step uint64) [dh.SharedSize]byte {
		t.Helper()
		r, err := c.at([]byte("peer"), step, agree, nil)
		if err != nil {
			t.Fatal(err)
		}
		sec := r.sec
		if want := dh.RatchetN(raw, step); sec != want {
			t.Fatalf("step %d: not the raw secret ratcheted %d times", step, step)
		}
		return sec
	}
	at(3)
	at(3)
	at(5)
	if agreed != 1 {
		t.Fatalf("monotone lookups agreed %d times, want 1", agreed)
	}
	at(1) // below the cached step: re-derived from the key pair
	if agreed != 2 {
		t.Fatalf("a lower step agreed %d times in total, want 2", agreed)
	}
	if got := c.m["peer"].step; got != 5 {
		t.Fatalf("cached step = %d after a lower lookup, want 5", got)
	}
	at(6)
	if agreed != 2 {
		t.Fatal("the lower lookup displaced the cached secret")
	}

	c.Delete("nobody")
	c.DeleteFunc(func(k string) bool { return k == "peer" })
	at(0)
	if agreed != 3 {
		t.Fatal("DeleteFunc kept the secret")
	}
	c.Clear()
	at(0)
	if agreed != 4 {
		t.Fatal("Clear kept the secret")
	}
}

// TestSecretsKeyAt: the constructed AEAD key is the cached secret's, built
// once per ratchet step and shared by every caller at that step (the
// chunks of a round, both directions of an edge), dropped when the secret
// ratchets on, and a plain lookup in between neither loses nor rebuilds it.
func TestSecretsKeyAt(t *testing.T) {
	raw := [dh.SharedSize]byte{9, 8, 7}
	agreed := 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	var c Secrets
	keyAt := func(step uint64) *aead.Key {
		t.Helper()
		k, err := c.KeyAt([]byte("peer"), step, agree)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := k.Seal(rand.Reader, []byte("probe"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aead.Open(dh.RatchetN(raw, step), ct, nil); err != nil {
			t.Fatalf("step %d: the key is not the raw secret ratcheted %d times", step, step)
		}
		return k
	}
	k2 := keyAt(2)
	if _, err := c.at([]byte("peer"), 2, agree, nil); err != nil {
		t.Fatal(err)
	}
	if keyAt(2) != k2 {
		t.Fatal("a second lookup at the same step built a second key")
	}
	if keyAt(3) == k2 {
		t.Fatal("the ratcheted secret kept the previous step's key")
	}
	if agreed != 1 {
		t.Fatalf("agreed %d times, want 1", agreed)
	}

	pure := func() ([dh.SharedSize]byte, error) { return raw, nil }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.KeyAt([]byte("other"), 1, pure); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	k, _ := c.KeyAt([]byte("other"), 1, pure)
	if again, _ := c.KeyAt([]byte("other"), 1, pure); again != k {
		t.Fatal("racing first lookups left no stable cached key")
	}
}

// TestSecretsStreamAt: the mask stream is the cached secret's, keyed once
// per ratchet step and shared by every caller at that step (the chunks of
// a round), dropped when the secret ratchets on; a plain lookup in between
// neither loses nor rebuilds it.
func TestSecretsStreamAt(t *testing.T) {
	raw := [dh.SharedSize]byte{4, 5, 6}
	agreed, built := 0, 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	newStream := func(sec [dh.SharedSize]byte) *prg.Stream { built++; return prg.NewStream(prg.NewSeed(sec[:])) }
	var c Secrets
	streamAt := func(step uint64) *prg.Stream {
		t.Helper()
		s, err := c.StreamAt([]byte("peer"), step, agree, newStream)
		if err != nil {
			t.Fatal(err)
		}
		want := dh.RatchetN(raw, step)
		if s.Uint64() != prg.NewStream(prg.NewSeed(want[:])).Uint64() {
			t.Fatalf("step %d: the stream is not keyed by the raw secret ratcheted %d times", step, step)
		}
		s.Seek(0) // the next lookup checks the stream from its start
		return s
	}
	s2 := streamAt(2)
	if _, err := c.at([]byte("peer"), 2, agree, nil); err != nil {
		t.Fatal(err)
	}
	if streamAt(2) != s2 || built != 1 {
		t.Fatalf("a second lookup at the same step built %d streams", built)
	}
	if streamAt(3) == s2 || built != 2 {
		t.Fatal("the ratcheted secret kept the previous step's stream")
	}
	if agreed != 1 {
		t.Fatalf("agreed %d times, want 1", agreed)
	}
}

// TestSecretsWarmLookupAllocatesNothing: a lookup the cache already holds
// at its step — every (pair, chunk) of a round after the pair's first —
// indexes the map by the caller's key bytes in place; only a store copies
// them into a string.
func TestSecretsWarmLookupAllocatesNothing(t *testing.T) {
	raw := [dh.SharedSize]byte{7, 7, 7}
	agree := func() ([dh.SharedSize]byte, error) { return raw, nil }
	newStream := func(sec [dh.SharedSize]byte) *prg.Stream { return prg.NewStream(prg.NewSeed(sec[:])) }
	var streams, keys Secrets
	peer := bytes.Repeat([]byte{0xA5}, dh.PublicKeySize)
	if _, err := streams.StreamAt(peer, 1, agree, newStream); err != nil {
		t.Fatal(err)
	}
	if _, err := keys.KeyAt(peer, 1, agree); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { streams.StreamAt(peer, 1, agree, newStream) }); n != 0 {
		t.Errorf("a warm StreamAt allocates %v per lookup, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { keys.KeyAt(peer, 1, agree) }); n != 0 {
		t.Errorf("a warm KeyAt allocates %v per lookup, want 0", n)
	}
}

// TestSecretsReserveTakesCohortWithoutGrowth: a cache reserved for n
// secrets — a client's neighbors — stores n of them without growing its
// map, so the n inserts allocate only their key copies and what build
// makes (here nothing: every secret's stream is one made beforehand).
// Unreserved, the same inserts also grow the map.
func TestSecretsReserveTakesCohortWithoutGrowth(t *testing.T) {
	const n = 63 // a 64-client cohort's neighbors under the complete graph
	raw := [dh.SharedSize]byte{9}
	agree := func() ([dh.SharedSize]byte, error) { return raw, nil }
	made := prg.NewStream(prg.NewSeed(raw[:]))
	newStream := func([dh.SharedSize]byte) *prg.Stream { return made }
	peers := make([][]byte, n)
	for i := range peers {
		peers[i] = bytes.Repeat([]byte{byte(i)}, dh.PublicKeySize)
	}
	inserts := func(reserve bool) float64 {
		caches := make([]Secrets, 2) // AllocsPerRun runs once to warm up, then once measured
		if reserve {
			for i := range caches {
				caches[i].Reserve(n)
			}
		}
		next := 0
		return testing.AllocsPerRun(1, func() {
			c := &caches[next]
			next++
			for _, p := range peers {
				if _, err := c.StreamAt(p, 0, agree, newStream); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if got := inserts(true); got != n {
		t.Errorf("%d inserts into a cache reserved for them allocate %v, want %d key copies", n, got, n)
	}
	if got := inserts(false); got <= n {
		t.Errorf("%d inserts into an unreserved cache allocate %v: the test no longer sees the map grow", n, got)
	}
}
