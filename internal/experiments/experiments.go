// Package experiments contains one runner per table and figure of the
// paper's motivation and evaluation sections. Each runner returns typed
// rows and renders the same rows/series the paper reports, so that
// `dordis-bench -exp <id>` regenerates the experiment. The registry in this
// file is the index (`dordis-bench -list` prints it).
//
// Scale note: utility experiments (Fig. 1b/1c, Table 2, Fig. 9) train real
// models; Scale shrinks rounds/data uniformly so the full suite runs in
// minutes. Privacy accounting (Fig. 1d, Fig. 8) and round-time modeling
// (Fig. 2, Fig. 10, Table 3) are exact at any scale.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Scale selects the experiment fidelity.
type Scale struct {
	// Rounds overrides each task's round count (0 = paper setting).
	Rounds int
	// PerClient overrides per-client examples (0 = preset default).
	PerClient int
}

// QuickScale is the reduced setting (`dordis-bench -scale quick`, and this
// package's tests) under which the whole suite regenerates quickly.
func QuickScale() Scale { return Scale{Rounds: 20, PerClient: 25} }

// PaperScale runs the presets at the paper's round counts.
func PaperScale() Scale { return Scale{} }

// Runner regenerates one experiment and writes its rows to w.
type Runner func(w io.Writer, sc Scale) error

var registry = map[string]Runner{}
var descriptions = map[string]string{}

func register(id, desc string, r Runner) {
	registry[id] = r
	descriptions[id] = desc
}

// IDs lists the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's one-line description.
func Describe(id string) string { return descriptions[id] }

// Run executes the experiment with the given id.
func Run(id string, w io.Writer, sc Scale) error {
	r, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
	}
	return r(w, sc)
}
