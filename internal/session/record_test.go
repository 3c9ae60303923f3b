package session

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/dh"
)

const testTag, testVersion = 0x54, 9

// testRecord encodes one record holding both shared client sections.
func testRecord(t *testing.T, c *ClientState, secrets *Secrets) []byte {
	t.Helper()
	w := NewRecord(testTag, testVersion)
	c.WriteRecord(w)
	secrets.WriteRecord(w)
	p, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func readTestRecord(p []byte) (*ClientState, *Secrets, error) {
	r := OpenRecord(p, testTag, testVersion)
	c, secrets := new(ClientState), new(Secrets)
	c.ReadRecord(r)
	secrets.ReadRecord(r)
	return c, secrets, r.Done()
}

func TestClientSectionsRoundTrip(t *testing.T) {
	var c ClientState
	roster := testRoster(1, 2, 7)
	roster[1].Signature = []byte{9, 9}
	roster[2].MaskPub = nil // a one-key entry
	c.StoreRoster(roster)
	c.MarkRatchetUsed(6)
	c.Taint()
	var secrets Secrets
	for key, step := range map[string]uint64{"peer-b": 2, "peer-a": 0} {
		k := key
		if _, err := secrets.at(k, step, func() ([dh.SharedSize]byte, error) {
			return [dh.SharedSize]byte{k[5]}, nil
		}, nil); err != nil {
			t.Fatal(err)
		}
	}

	p := testRecord(t, &c, &secrets)
	gotC, gotSecrets, err := readTestRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotC.Roster(), roster) || gotC.NextRatchet() != 7 || !gotC.Tainted() {
		t.Fatalf("client state changed in round trip: %+v", gotC)
	}
	if !reflect.DeepEqual(gotSecrets.m, secrets.m) {
		t.Fatalf("secrets changed in round trip: %v", gotSecrets.m)
	}
	if again := testRecord(t, gotC, gotSecrets); !reflect.DeepEqual(again, p) {
		t.Fatal("re-encoding the decoded record changed its bytes")
	}

	// An empty state is a record too, and reads back empty.
	gotC, gotSecrets, err = readTestRecord(testRecord(t, new(ClientState), new(Secrets)))
	if err != nil || gotC.Roster() != nil || gotC.Tainted() || len(gotSecrets.m) != 0 {
		t.Fatalf("empty round trip: %v %+v", err, gotC)
	}
}

func TestClientSectionsMalformed(t *testing.T) {
	var c ClientState
	c.StoreRoster(testRoster(1, 2))
	var secrets Secrets
	for _, k := range []string{"a", "b"} {
		if _, err := secrets.at(k, 1, func() (s [dh.SharedSize]byte, _ error) { return s, nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	good := testRecord(t, &c, &secrets)

	for cut := 0; cut < len(good); cut++ {
		if _, _, err := readTestRecord(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mutate := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	const rosterCount = 3 + 8 + 1 // after [magic][tag][version], ratchet, flags
	rosterLen := 0
	for _, m := range c.Roster() {
		rosterLen += 8 + 2 + len(m.CipherPub) + 2 + len(m.MaskPub) + 2 + len(m.Signature)
	}
	secretCount := rosterCount + 4 + rosterLen
	for name, p := range map[string][]byte{
		"trailing byte": mutate(func(p []byte) []byte { return append(p, 0) }),
		"wrong version": mutate(func(p []byte) []byte { p[2]++; return p }),
		"wrong tag":     mutate(func(p []byte) []byte { p[1]++; return p }),
		"wrong magic":   mutate(func(p []byte) []byte { p[0]++; return p }),
		// Counts the remaining payload cannot carry, rejected before any
		// allocation for them.
		"lying roster count": mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[rosterCount:], uint32(len(p)))
			return p
		}),
		"lying secret count": mutate(func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[secretCount:], 3)
			return p
		}),
		// Secret "b" renamed "a": the same key twice.
		"duplicate secret": mutate(func(p []byte) []byte {
			p[secretCount+4+2+1+8+dh.SharedSize+2] = 'a'
			return p
		}),
	} {
		if _, _, err := readTestRecord(p); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}
