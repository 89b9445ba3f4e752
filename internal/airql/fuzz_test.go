package airql

import (
	"strings"
	"testing"

	"github.com/airindex/airindex/scenarios"
)

// FuzzCompile drives the whole compiler front end — lexer, parser,
// validator — over arbitrary input. The contract under fuzzing: never
// panic, and every rejection is an *Error or ErrorList whose diagnostics
// all carry a 1-based line:col position. Run with
//
//	go test -fuzz=FuzzCompile ./internal/airql
func FuzzCompile(f *testing.F) {
	for _, name := range scenarios.Names() {
		src, err := scenarios.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add(`SWEEP scheme=flat,bdisk,dist k=1,2,4,8 faultrate=0..0.10:0.02 | RUN seed=42 shards=4 mode=sim | EMIT csv(results/multich-at.csv) summary(stdout)`)
	f.Add("SWEEP k=1..8:1 fast(1,2,4,8)\nSET records=10000 fast(2500)")
	f.Add(`TABLE "a-b" title("t") x(k) | COL "c" mean(access){scheme=flat} / requests`)
	f.Add("NOTE \"workload: {records} records; {count(k)} points\"")
	f.Add("SET switchcost=1KiB zipfs=1.5 # comment\n")
	f.Add("SWEEP x=\"")
	f.Add("SWEEP x=1..")
	f.Add("COL")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile("fuzz.airql", src)
		if err == nil {
			if prog == nil {
				t.Fatal("nil program with nil error")
			}
			return
		}
		var diags []*Error
		switch e := err.(type) {
		case *Error:
			diags = []*Error{e}
		case ErrorList:
			if len(e) == 0 {
				t.Fatal("empty ErrorList returned as an error")
			}
			diags = e
		default:
			t.Fatalf("Compile returned %T, want *Error or ErrorList", err)
		}
		for _, d := range diags {
			if d.Pos.Line < 1 || d.Pos.Col < 1 {
				t.Fatalf("diagnostic without a position: %+v", d)
			}
			if !strings.HasPrefix(d.Error(), "fuzz.airql:") {
				t.Fatalf("diagnostic %q does not lead with file:line:col", d.Error())
			}
		}
	})
}
