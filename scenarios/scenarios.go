// Package scenarios embeds the airql scripts that generate every
// experiment family. The scripts are the single source of truth for the
// sweeps: `cmd/airql` runs them by name (or any on-disk script), the
// paper-shape tests and the root benchmarks compile the same texts, and
// the airql-regen CI job recompiles every one of them and byte-diffs the
// CSVs it emits against the committed results/.
package scenarios

import (
	"embed"
	"sort"
	"strings"
)

//go:embed *.airql
var scripts embed.FS

// Names lists the embedded script file names ("fig4.airql", ...), sorted.
func Names() []string {
	entries, err := scripts.ReadDir(".")
	if err != nil {
		// The embedded FS root always reads; an error here is a build bug.
		panic("scenarios: " + err.Error())
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".airql") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Source returns an embedded script's text by file name.
func Source(name string) (string, error) {
	b, err := scripts.ReadFile(name)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
