package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestQuickGolden runs every registry id at quick scale and compares its
// output with testdata/quick/<id>.golden byte for byte, so a change that
// moves a figure row shows the move as a diff of the golden. The shape
// tests state the paper's claims; this states the numbers. After a
// deliberate change, regenerate with
//
//	WRITE_GOLDEN=1 go test -run '^TestQuickGolden$' ./internal/experiments
//
// The quick-scale suite trains real models (~20 s of CPU, most of it
// table2's), and ~10× that under -race, which changes no row; so a -race
// build skips it, and ci/required.txt runs it without the detector. The rows are
// formatted floating point, which a platform that fuses multiply-adds
// may round differently: the goldens pin amd64, where they were written.
func TestQuickGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the goldens pin amd64's floating-point output, not %s's", runtime.GOARCH)
	}
	if raceBuild {
		t.Skip("a -race build changes no row and takes ~10× as long")
	}
	write := os.Getenv("WRITE_GOLDEN") != ""
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := Run(id, &buf, QuickScale()); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick", id+".golden")
			if write {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with WRITE_GOLDEN=1)", err)
			}
			if got := buf.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s differs from its golden at %s", id, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return "no line (lengths differ)"
}
