// Package mapbad emits map-iteration-ordered data without sorting: the
// keys collected from a range over a map reach a CSV writer, an fmt
// sink and a core.Result field while still tainted. The determinism
// analyzer's syntactic rule does not apply here (a command package is
// outside its scope) — exactly the gap the flow-sensitive maporder
// rule closes.
package mapbad

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"example.com/airlintfix/internal/core"
)

// EmitCSV writes the params in map order: nondeterministic output.
func EmitCSV(w *csv.Writer, params map[string]float64) error {
	var keys []string
	for k := range params {
		keys = append(keys, k)
	}
	return w.Write(keys)
}

// EmitText launders the keys through a join before printing them.
func EmitText(out io.Writer, params map[string]float64) {
	var keys []string
	for k := range params {
		keys = append(keys, k)
	}
	line := strings.Join(keys, ",")
	fmt.Fprintln(out, line)
}

// Summarize stores map-ordered text into the merged result.
func Summarize(res *core.Result, params map[string]float64) {
	var b []string
	for k, v := range params {
		b = append(b, fmt.Sprintf("%s=%g", k, v))
	}
	res.Summary = strings.Join(b, " ")
}

// EmitRows re-ranges over the unsorted key slice; the loop variable
// inherits the map-iteration taint from the collection.
func EmitRows(out io.Writer, params map[string]float64) {
	var keys []string
	for k := range params {
		keys = append(keys, k)
	}
	for _, k := range keys {
		fmt.Fprintln(out, k)
	}
}
