// Package fuzzcorpus keeps the checked-in seed corpus of a native fuzz
// target (testdata/fuzz/<target>/seed-NN, the "go test fuzz v1" format) in
// step with the test code that generates it. The seeds are encoder output
// — valid frames of every kind plus their malformed mutations — so the
// corpus doubles as the golden for "the encoder still emits these bytes".
package fuzzcorpus

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Check compares seeds, in order, with the seed-NN files checked in under
// testdata/fuzz/<target> of the calling test's package, and fails on a
// seed whose file differs or is missing and on a seed-NN file no seed
// accounts for. With WRITE_FUZZ_CORPUS=1 in the environment it writes the
// files instead — the way to regenerate the corpus after a deliberate
// format change. Seed generators must be deterministic (fixed signer
// seeds, no clock, no crypto/rand).
func Check(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	write := os.Getenv("WRITE_FUZZ_CORPUS") != ""
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		want := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n")
		if write {
			if err := os.WriteFile(name, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Errorf("generated seed %d has no checked-in file: %v", i, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s differs from generated seed %d:\nchecked in %s\ngenerated  %s", name, i, got, want)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%s holds %d seed files, the generator makes %d", dir, len(files), len(seeds))
	}
}
