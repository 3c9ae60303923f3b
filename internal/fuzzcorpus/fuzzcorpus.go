// Package fuzzcorpus is the one codec conformance harness of the binary
// payload families. A family's test hands it a table — each decoder with
// the encoder it inverts and a few sample messages, plus the malformed
// payloads only that codec needs named — and the harness asserts the same
// rule of every decoder: an accepted payload has exactly one encoding.
// Check runs the table; Fuzz is the body and the seeds of the family's
// native fuzz targets; the seed corpus checked in under
// testdata/fuzz/<target> (the "go test fuzz v1" format) is the table's
// encoder output, so it doubles as the golden for "the encoders still
// emit these bytes".
package fuzzcorpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
// body: no decoder panics, and every payload one of them accepts
// re-encodes to exactly its bytes — no accepted payload carries slack a
// peer could hide a second meaning in, and no length prefix outruns the
// payload it came with.
func (f *Family) Fuzz(fz *testing.F, target string) {
	i := slices.IndexFunc(f.Targets, func(t Target) bool { return t.Name == target })
	if i < 0 {
		fz.Fatalf("no fuzz target %s in the family", target)
	}
	for _, s := range f.seeds(fz, f.Targets[i]) {
		fz.Add(s)
	}
	fz.Fuzz(func(t *testing.T, p []byte) {
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
