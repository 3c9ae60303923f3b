package skellam

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
)

// goldenCase is one pinned Encode input: the parameters, the update and
// the name of the rounding stream.
type goldenCase struct {
	name string
	p    Params
	x    []float64
}

func goldenParams(dim int) Params {
	return Params{Dim: dim, Bits: 20, Clip: 1, Scale: 1000, Beta: math.Exp(-0.5), K: 3,
		NumClients: 64, RotationSeed: prg.NewSeed([]byte("skellam-golden-rotation"))}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, dim := range []int{1000, 16384} {
		p := goldenParams(dim)
		s := prg.NewStream(prg.NewSeed([]byte(fmt.Sprintf("skellam-golden-x/%d", dim))))
		cases = append(cases,
			goldenCase{fmt.Sprintf("dim%d/inside-clip", dim), p, randomUpdate(s, dim, 0.5)},
			goldenCase{fmt.Sprintf("dim%d/clipped", dim), p, randomUpdate(s, dim, 3)},
			goldenCase{fmt.Sprintf("dim%d/zero", dim), p, make([]float64, dim)})
	}
	// A spike rotates to ±Clip/√p everywhere; Scale = √p/2 puts every
	// coordinate on ±0.5, and β ≈ 1 leaves the acceptance bound at
	// ‖y‖² + p/4 — the mean of ‖z‖² — so about half of all attempts fail.
	p := goldenParams(64)
	p.Scale, p.Beta = 4, 0.999999
	spike := make([]float64, 64)
	spike[0] = 1
	cases = append(cases, goldenCase{"retry", p, spike})
	return cases
}

func goldenStream(name string) *prg.Stream {
	return prg.NewStream(prg.NewSeed([]byte("skellam-golden-rnd/" + name)))
}

func vectorDigest(v ring.Vector) string {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v.Bits))
	h.Write(w[:])
	for _, d := range v.Data {
		binary.LittleEndian.PutUint64(w[:], d)
		h.Write(w[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeGoldens pins Encode's output and the number of rounding attempts
// it drew, captured from the allocate-per-step Encode this package had
// before the Encoder (commit 44e96a9).
var encodeGoldens = map[string]struct {
	digest   string
	attempts uint64
}{
	"dim1000/inside-clip":  {"a845204602c2ddf75099edf3ccbb6725623cd1202914298b538277b1abdb2960", 1},
	"dim1000/clipped":      {"2d59ef6212d927d75993d6911f98d59be0aea86b13d9fb59329909aedd816b84", 2},
	"dim1000/zero":         {"c96a3f24ca94169e264dab2ab5cdca6632a454d9220c40836e763288bc218531", 1},
	"dim16384/inside-clip": {"0c8d824b039513c2a41a8bef4169f2239340eda2c678232e7e357b63a551b2ba", 1},
	"dim16384/clipped":     {"15ae29875c9a142a53ece7e39fad1e69d5ba28ac7b3deb3bd49d4464794428bd", 1},
	"dim16384/zero":        {"c221f2244c4c9e2285a86c85eceb777282c7837eb918f4a3307fef988bc1bd7e", 1},
	"retry":                {"ddb7d7c5472695178573d8ba1c2cd04f92448a9d9d4670938a79c353b77bb5e1", 2},
}

// TestEncoderMatchesEncode holds EncodeInto — and Encode, its wrapper — to
// the parent's ring vectors bit for bit, with one Encoder serving every
// case that shares its Params (as a round's clients do) and both the
// scratch and the destination dirty from the case before.
func TestEncoderMatchesEncode(t *testing.T) {
	encoders := map[Params]*Encoder{}
	dsts := map[Params]ring.Vector{}
	for _, c := range goldenCases() {
		want, ok := encodeGoldens[c.name]
		if !ok {
			t.Fatalf("%s: no golden", c.name)
		}
		e := encoders[c.p]
		if e == nil {
			var err error
			if e, err = NewEncoder(c.p); err != nil {
				t.Fatal(err)
			}
			encoders[c.p] = e
			dsts[c.p] = ring.NewVector(c.p.Bits, c.p.PaddedDim())
			for i := range e.buf {
				e.buf[i] = math.NaN()
				dsts[c.p].Data[i] = ^uint64(0)
			}
		}
		rnd := goldenStream(c.name)
		if err := e.EncodeInto(dsts[c.p], c.x, rnd); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := vectorDigest(dsts[c.p]); got != want.digest {
			t.Errorf("%s: EncodeInto digest %s, want %s", c.name, got, want.digest)
		}
		if got := rnd.Offset() / uint64(8*c.p.PaddedDim()); got != want.attempts {
			t.Errorf("%s: %d rounding attempts drawn, want %d", c.name, got, want.attempts)
		}
		v, err := Encode(c.p, c.x, goldenStream(c.name))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := vectorDigest(v); got != want.digest {
			t.Errorf("%s: Encode digest %s, want %s", c.name, got, want.digest)
		}
	}
	if encodeGoldens["retry"].attempts < 2 {
		t.Error("the retry case no longer retries")
	}
}

// TestEncodeRefusesNonFinite: a NaN or ±Inf coordinate is refused by name
// before any rounding randomness is drawn, instead of burning the retry
// budget and blaming the bound. Finite inputs whose squares overflow are
// not non-finite inputs.
func TestEncodeRefusesNonFinite(t *testing.T) {
	p := goldenParams(100)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := make([]float64, p.Dim)
		x[3], x[41] = 0.25, bad
		rnd := goldenStream("non-finite")
		_, err := Encode(p, x, rnd)
		if err == nil || !strings.Contains(err.Error(), "skellam: non-finite input at 41") {
			t.Errorf("Encode with x[41]=%v: error %v, want non-finite input at 41", bad, err)
		}
		if rnd.Offset() != 0 {
			t.Errorf("Encode with x[41]=%v drew %d bytes of rounding randomness", bad, rnd.Offset())
		}
	}
	x := make([]float64, p.Dim)
	x[0], x[1] = 1e200, -1e200
	if _, err := Encode(p, x, goldenStream("overflow")); err != nil {
		t.Errorf("finite input with overflowing norm: %v", err)
	}
}
