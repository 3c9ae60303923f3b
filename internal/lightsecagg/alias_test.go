package lightsecagg

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/field"
)

// TestDecodersDoNotAliasPayload: the engine releases a frame the moment it
// is decoded or applied, so every message this substrate's wire codec
// decodes must own all it holds — the raw-key advertisement included.
// Each tag decodes a golden payload, the payload is scribbled over the way
// a -race build's transport.Release does, and the decoded value must not
// have moved. The encoder side of the same rule: an encoded payload is the
// link's to release, so it must not be the message's own memory.
func TestDecodersDoNotAliasPayload(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 32)
	elems := []field.Element{field.New(1), field.New(2), field.New(field.Modulus - 1)}
	envs := []Envelope{{From: 1, To: 2, Ciphertext: bytes.Repeat([]byte{0xC7}, 48)}, {From: 1, To: 3, Ciphertext: []byte{5}}}
	samples := map[int]any{
		wireAdvertise: AdvertiseMsg{CipherPub: key},
		wireRoster:    []AdvertiseMsg{{From: 1, CipherPub: key}, {From: 2}, {From: 9, CipherPub: bytes.Repeat([]byte{9}, 32)}},
		wireShares:    envs,
		wireDeliver:   envs[:1],
		wireMasked:    MaskedMsg{From: 3, Y: elems},
		wireSurvivors: []uint64{1, 2, 9},
		wireAggShare:  AggShareMsg{From: 2, S: elems},
		wireResult:    elems,
	}
	for tag, codec := range wireCodec {
		msg, ok := samples[tag]
		if !ok {
			t.Errorf("wire tag %d has no sample", tag)
			continue
		}
		payload, err := codec.Encode(msg)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		want, err := codec.Decode(bytes.Clone(payload))
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		got, err := codec.Decode(payload)
		if err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
		for i := range payload {
			payload[i] = 0xDB
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("wire tag %d: the decoded value aliases its payload", tag)
		}
		if !bytes.Equal(key, bytes.Repeat([]byte{0x42}, 32)) {
			t.Errorf("wire tag %d: the encoded payload aliases the message", tag)
		}
	}
}
