// Package fuzzcorpus is the one codec conformance harness of the binary
// payload families. A family's test hands it a table — each decoder with
// the encoder it inverts and a few sample messages, plus the malformed
// payloads only that codec needs named — and the harness asserts the same
// rule of every decoder: an accepted payload has exactly one encoding.
// Check runs the table; Fuzz is the body and the seeds of the family's
// native fuzz targets; the seed corpus checked in under
// testdata/fuzz/<target> (the "go test fuzz v1" format) is the table's
// encoder output, so it doubles as the golden for "the encoders still
// emit these bytes". CheckAlloc and the fuzz body also bound what a
// decoder allocates against the payload it is handed.
package fuzzcorpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"slices"
	"strconv"
	"testing"
)

// Kind is one decoder of a family and the encoder it inverts.
type Kind struct {
	Name   string
	Encode func(any) ([]byte, error)
	Decode func([]byte) (any, error)
	// Samples are messages in the form Decode returns them: an empty
	// section as the decoder yields it (nil, or an empty map where the
	// decoder makes one). Each must encode to a payload of at least one
	// byte.
	Samples []any
	// Own is set only for a decoder that borrows its payload: it copies
	// what Decode returned into the owned message Encode takes. The alias
	// check then asserts that the decoder does borrow — on some sample: one
	// with nothing to borrow, an empty vector, cannot show it — so the
	// exception stays deliberate.
	Own func(any) any
}

// Row is a named payload every decoder of the family must refuse.
type Row struct {
	Name    string
	Payload []byte
}

// Target is a native fuzz target of a family. Its seeds are the sample
// payloads of the kinds it names, each also cut by one byte and extended
// by one, followed by the family's refusal rows.
type Target struct {
	Name  string
	Kinds []string
}

// Family is the conformance table of one codec family.
type Family struct {
	Kinds []Kind
	// SameLayout groups kinds that decode one layout by design (two id
	// sets, one share list relayed up and down), so each accepts the
	// others' payloads.
	SameLayout [][]string
	// Refuse holds the malformed payloads this codec alone needs: lying
	// counts, unsorted keys, non-canonical values, foreign versions.
	Refuse  []Row
	Targets []Target
}

// Check runs the family's conformance rows as subtests of t: the refusal
// rows, the corpus of every target, and for each sample of each kind:
//   - decoding its encoding gives the sample back, and encoding that
//     reproduces the payload;
//   - every strict prefix, the payload plus one trailing byte, and the
//     payload under every other kind's decoder are refused;
//   - neither the decoded message nor the sample aliases the payload
//     (Kind.Own's decoder must, on at least one sample of the kind).
//
// Given parts, it runs only those: a kind by its name, a refusal row as
// "refuse/<row>", a target's corpus as "corpus/<target>".
func (f *Family) Check(t *testing.T, parts ...string) {
	t.Helper()
	ran := 0
	run := func(name string, body func(t *testing.T)) {
		if len(parts) == 0 || slices.Contains(parts, name) {
			ran++
			t.Run(name, body)
		}
	}
	for _, k := range f.Kinds {
		run(k.Name, func(t *testing.T) {
			borrowed := false
			for i, v := range k.Samples {
				borrowed = f.checkSample(t, k, i, v) || borrowed
			}
			if k.Own != nil && !borrowed {
				t.Error("no sample's decoded message aliases its payload, but the kind borrows (Own)")
			}
		})
	}
	for _, row := range f.Refuse {
		run("refuse/"+row.Name, func(t *testing.T) {
			for _, k := range f.Kinds {
				if _, err := k.Decode(bytes.Clone(row.Payload)); err == nil {
					t.Errorf("%s decoder accepts %x", k.Name, row.Payload)
				}
			}
		})
	}
	for _, target := range f.Targets {
		run("corpus/"+target.Name, func(t *testing.T) { checkCorpus(t, target.Name, f.seeds(t, target)) })
	}
	if len(parts) > 0 && ran != len(parts) {
		t.Fatalf("%d of the parts %q are not in the table", len(parts)-ran, parts)
	}
}

// checkSample runs the rows of one sample and reports whether its decoded
// message borrows from the payload.
func (f *Family) checkSample(t *testing.T, k Kind, i int, v any) bool {
	t.Helper()
	p, err := k.Encode(v)
	if err != nil {
		t.Fatalf("sample %d does not encode: %v", i, err)
	}
	got, err := k.decode(bytes.Clone(p))
	if err != nil {
		t.Fatalf("sample %d: its encoding %x is refused: %v", i, p, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Errorf("sample %d decodes to\n%#v, want\n%#v", i, got, v)
	}
	if re, err := k.Encode(got); err != nil || !bytes.Equal(re, p) {
		t.Errorf("sample %d re-encodes to %x (%v), want %x", i, re, err, p)
	}
	for cut := range p {
		if _, err := k.Decode(bytes.Clone(p[:cut])); err == nil {
			t.Errorf("sample %d: prefix of %d of %d bytes accepted", i, cut, len(p))
		}
	}
	if _, err := k.Decode(append(bytes.Clone(p), 0)); err == nil {
		t.Errorf("sample %d: a trailing byte accepted", i)
	}
	for _, other := range f.Kinds {
		if other.Name == k.Name || f.sameLayout(k.Name, other.Name) {
			continue
		}
		if _, err := other.Decode(bytes.Clone(p)); err == nil {
			t.Errorf("sample %d accepted by the %s decoder", i, other.Name)
		}
	}

	// The link releases a payload once it is sent or decoded, and a -race
	// build's transport.Release scribbles over it as below: the message on
	// either side must not move.
	frame := bytes.Clone(p)
	raw, _ := k.Decode(frame)
	want, _ := k.Decode(bytes.Clone(p))
	scribble(frame)
	borrows := !reflect.DeepEqual(raw, want)
	if borrows && k.Own == nil {
		t.Errorf("sample %d: decoded message aliases its payload", i)
	}
	scribble(p)
	if !reflect.DeepEqual(v, got) {
		t.Errorf("sample %d: the encoded payload aliases the message", i)
	}
	return borrows
}

func scribble(p []byte) {
	for i := range p {
		p[i] = 0xDB
	}
}

// decode runs k's decoder and, for a borrowing one, owns the result.
func (k Kind) decode(p []byte) (any, error) {
	v, err := k.Decode(p)
	if err != nil || k.Own == nil {
		return v, err
	}
	return k.Own(v), nil
}

func (f *Family) sameLayout(a, b string) bool {
	for _, g := range f.SameLayout {
		if slices.Contains(g, a) && slices.Contains(g, b) {
			return true
		}
	}
	return false
}

// Fuzz seeds fz with the named target's seeds and runs the family's fuzz
// body: no decoder panics, every payload one of them accepts re-encodes
// to exactly its bytes — no accepted payload carries slack a peer could
// hide a second meaning in, and no length prefix outruns the payload it
// came with — and no decoder allocates past the bound (checkAlloc) on any
// payload, accepted or not.
func (f *Family) Fuzz(fz *testing.F, target string) {
	i := slices.IndexFunc(f.Targets, func(t Target) bool { return t.Name == target })
	if i < 0 {
		fz.Fatalf("no fuzz target %s in the family", target)
	}
	for _, s := range f.seeds(fz, f.Targets[i]) {
		fz.Add(s)
	}
	fz.Fuzz(func(t *testing.T, p []byte) {
		f.checkAlloc(t, "fuzz input", p, true)
		for _, k := range f.Kinds {
			v, err := k.decode(bytes.Clone(p))
			if err != nil {
				continue // malformed input refused: the property holds
			}
			if re, err := k.Encode(v); err != nil || !bytes.Equal(re, p) {
				t.Fatalf("%s accepts a payload it does not re-encode (%v):\n in %x\nout %x", k.Name, err, p, re)
			}
		}
	})
}

// seeds returns a target's seeds (see Target).
func (f *Family) seeds(tb testing.TB, target Target) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, k := range f.Kinds {
		if len(target.Kinds) > 0 && !slices.Contains(target.Kinds, k.Name) {
			continue
		}
		for i, v := range k.Samples {
			p, err := k.Encode(v)
			if err != nil {
				tb.Fatalf("%s sample %d: %v", k.Name, i, err)
			}
			out = append(out, bytes.Clone(p), bytes.Clone(p[:len(p)-1]), append(bytes.Clone(p), 0))
		}
	}
	for _, row := range f.Refuse {
		out = append(out, row.Payload)
	}
	return out
}

// checkCorpus compares seeds with the seed-NN files checked in under
// testdata/fuzz/<target> of the calling test's package, as a set: it
// fails on a seed no file holds, on a file no seed accounts for and on two
// files holding one seed. With
// WRITE_FUZZ_CORPUS=1 in the environment it writes each missing seed to
// the next free seed-NN instead — the way to update the corpus after a
// deliberate change, so a corpus grows by the seeds a change adds and no
// checked-in file is renamed (a stale one is removed by hand). Tables
// must be deterministic (fixed signer seeds, no clock, no crypto/rand).
func checkCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	files, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]string, len(files)) // file body → file
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if first, dup := have[string(b)]; dup {
			t.Errorf("%s: holds the same seed as %s", name, first)
		}
		have[string(b)] = name
	}
	want := make(map[string]bool, len(seeds))
	next := len(files)
	for _, s := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
		if want[body] {
			continue
		}
		want[body] = true
		switch {
		case have[body] != "":
		case write:
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for ; ; next++ {
				name := filepath.Join(dir, fmt.Sprintf("seed-%02d", next))
				if _, err := os.Stat(name); os.IsNotExist(err) {
					if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
		default:
			t.Errorf("%s: generated seed %q has no checked-in file", dir, s)
		}
	}
	for body, name := range have {
		if !want[body] {
			t.Errorf("%s: no generated seed accounts for it", name)
		}
	}
}

// The allocation bound of every decoder of every family: decoding a
// payload of n bytes — one it accepts or one it refuses — allocates at most
// allocPerByte·n + allocSlack bytes of heap. A message costs a small
// multiple of its encoding (the densest, a roster entry of three empty
// blobs, is 14 bytes on the wire and an 80-byte Entry in memory), and the
// slack covers what does not scale with the payload: the boxed message, a
// map's first group, a refusal's error. A length prefix the payload cannot
// back must be refused before anything is allocated for it.
const (
	allocPerByte = 16
	allocSlack   = 4 << 10

	// A reading over the bound is retaken allocReadings times, each the
	// average of allocReps decodes, and the least stands: the runtime
	// counts a small allocation when its span is refilled, not when it is
	// made, so one decode's reading is off by up to a span per size class,
	// and a collection inside a reading counts what every P had cached.
	allocReps     = 32
	allocReadings = 3
)

var allocCounter = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// decodeAlloc reports the heap bytes one k.Decode of p allocates, as the
// least of the readings taken (see allocReps) until one is within bound.
// A first decode pays a decoder's one-time initialisation; its reading
// counts only when quick — the fuzz body's fast path, which takes no
// other reading unless that one is over the bound.
func decodeAlloc(k Kind, p []byte, bound uint64, quick bool) uint64 {
	least := ^uint64(0)
	for i := 0; i <= allocReadings && least > bound; i++ {
		reps := uint64(allocReps)
		if i == 0 {
			reps = 1
		}
		metrics.Read(allocCounter)
		before := allocCounter[0].Value.Uint64()
		for range reps {
			k.Decode(p)
		}
		metrics.Read(allocCounter)
		if i > 0 || quick {
			least = min(least, (allocCounter[0].Value.Uint64()-before)/reps)
		}
	}
	return least
}

// checkAlloc fails t if any decoder of the family allocates past the bound
// on p. The counter is process-wide, so it is read only from tests that do
// not run in parallel, and a -race build, whose instrumentation allocates
// on its own schedule, skips it.
func (f *Family) checkAlloc(t *testing.T, what string, p []byte, quick bool) {
	t.Helper()
	if raceBuild {
		return
	}
	p = bytes.Clone(p)
	bound := uint64(allocPerByte*len(p) + allocSlack)
	for _, k := range f.Kinds {
		if got := decodeAlloc(k, p, bound, quick); got > bound {
			t.Errorf("%s decoder allocates %d bytes on a %d-byte %s, bound %d·%d + %d = %d",
				k.Name, got, len(p), what, allocPerByte, len(p), allocSlack, bound)
		}
	}
}

// CheckAlloc asserts the allocation bound (checkAlloc) for every decoder
// of the family on every seed of every target: the refusal rows and each
// sample's payload, also cut by a byte and extended by one — the corpus
// checked in under testdata/fuzz/<target>, which corpus/<target> holds
// equal to them. Call it from a test that does not run in parallel; a
// -race build skips it.
func (f *Family) CheckAlloc(t *testing.T) {
	t.Helper()
	if raceBuild {
		t.Skip("a -race build allocates on its own schedule")
	}
	for _, target := range f.Targets {
		for i, p := range f.seeds(t, target) {
			f.checkAlloc(t, fmt.Sprintf("%s seed %d", target.Name, i), p, false)
		}
	}
}
