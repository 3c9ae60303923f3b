package lightsecagg

import (
	"encoding/hex"
	"testing"

	"repro/internal/session"
)

// TestRouteADGolden pins the envelope associated data to SecAgg's route
// AD, [round:8][from:8][to:8] little-endian, appended into the caller's
// array.
func TestRouteADGolden(t *testing.T) {
	const max = ^uint64(0)
	var buf [session.RouteADSize]byte
	for _, tc := range []struct {
		round, from, to uint64
		want            string
	}{
		{0, 0, 0, "000000000000000000000000000000000000000000000000"},
		{7003, 12, 5, "5b1b0000000000000c000000000000000500000000000000"},
		{1, 10, 100, "01000000000000000a000000000000006400000000000000"},
		{max, max, max, "ffffffffffffffffffffffffffffffffffffffffffffffff"},
	} {
		got := session.AppendRouteAD(buf[:0], tc.round, tc.from, tc.to)
		if hex.EncodeToString(got) != tc.want {
			t.Errorf("route AD %x, want %s", got, tc.want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("route AD %x outgrew RouteADSize = %d", got, session.RouteADSize)
		}
	}
}
