package secagg

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
)

// TestAddMaskedRetainsNothing: AddMasked has validated, digested and
// folded a masked input by the time it returns, in either form — the
// caller overwrites the vector (the wire link: releases the frame) right
// after, and the stage's sum and digests are still those of the vectors as
// they were. The bytes form lies at an odd offset, as it does in a frame.
func TestAddMaskedRetainsNothing(t *testing.T) {
	const senders = 5
	s := prg.NewStream(prg.NewSeed([]byte("add-masked-retains-nothing")))
	for _, bits := range []uint{2, 20, 32, 63} { // Config admits [2,63]
		for _, dim := range []int{1, 2047, 2048, 65536} {
			t.Run(fmt.Sprintf("bits%d/dim%d", bits, dim), func(t *testing.T) {
				cfg := mkConfig(senders, 3, nil)
				cfg.Bits, cfg.Dim, cfg.TranscriptDigests = bits, dim, true
				want := ring.NewVector(bits, dim)
				servers := map[string]*Server{}
				for _, form := range []string{"words", "bytes"} {
					srv, err := NewSessionServer(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					srv.u2, srv.u2set = cfg.ClientIDs, map[uint64]struct{}{}
					for _, id := range cfg.ClientIDs {
						srv.u2set[id] = struct{}{}
					}
					servers[form] = srv
				}
				y := make([]uint64, dim)
				frame := make([]byte, 14+8*dim)
				for _, id := range cfg.ClientIDs {
					for i := range y {
						y[i] = s.Uint64() & want.Mask()
						binary.LittleEndian.PutUint64(frame[14+8*i:], y[i])
					}
					if err := want.AddInPlace(ring.Vector{Bits: bits, Data: y}); err != nil {
						t.Fatal(err)
					}
					if err := servers["bytes"].AddMasked(MaskedInputMsg{From: id, YLE: frame[14:]}); err != nil {
						t.Fatal(err)
					}
					if err := servers["words"].AddMasked(MaskedInputMsg{From: id, Y: y}); err != nil {
						t.Fatal(err)
					}
					for i := range frame {
						frame[i] = 0xDB
					}
					for i := range y {
						y[i] = ^uint64(0)
					}
				}
				for form, srv := range servers {
					if u3, err := srv.SealMasked(); err != nil || len(u3) != senders {
						t.Fatalf("%s form: sealed %v, err %v", form, u3, err)
					}
					if !ring.Equal(srv.maskedSum, want) {
						t.Fatalf("%s form: the sum moved with the caller's buffer", form)
					}
				}
				wd, bd := servers["words"].MaskedDigests(), servers["bytes"].MaskedDigests()
				if len(wd) != senders || fmt.Sprint(wd) != fmt.Sprint(bd) {
					t.Fatal("words-form and bytes-form digests differ")
				}
			})
		}
	}

	// Neither form gets past validation malformed.
	cfg := mkConfig(3, 2, nil)
	srv, err := NewSessionServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.u2set = map[uint64]struct{}{1: {}}
	for name, m := range map[string]MaskedInputMsg{
		"short words":    {From: 1, Y: make([]uint64, cfg.Dim-1)},
		"short bytes":    {From: 1, YLE: make([]byte, 8*cfg.Dim-8)},
		"ragged bytes":   {From: 1, YLE: make([]byte, 8*cfg.Dim+1)},
		"both forms":     {From: 1, Y: make([]uint64, cfg.Dim), YLE: make([]byte, 8*cfg.Dim)},
		"neither form":   {From: 1},
		"outside U2":     {From: 2, Y: make([]uint64, cfg.Dim)},
		"empty, non-nil": {From: 1, YLE: []byte{}},
	} {
		if err := srv.AddMasked(m); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
