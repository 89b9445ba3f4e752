package airql

import (
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/scenarios"
)

// FuzzCompile drives the whole compiler front end — lexer, parser,
// validator — over arbitrary input. The contract under fuzzing: never
// panic; every rejection is an *Error or ErrorList whose diagnostics all
// carry a 1-based line:col position; and a script Compile accepts builds,
// under both profiles, only point configs core.Config.Validate accepts.
// Run with
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
	// Scripts whose points each fail core.Config.Validate.
	for _, set := range []string{
		"SET scheme=flat zipfs=2",
		"SET scheme=flat availability=0.5 fault.rate=0.01",
		"SET scheme=onem multi.channels=2 multi.policy=indexdata multi.indexchannels=2",
		"SET scheme=sig signature.sigbytes=4 signature.bits=40",
		"SET scheme=hash hashing.load=0.5",
		"SET scheme=flat data.recordbytes=10",
		"SET scheme=flat multi.switchcost=64",
	} {
		f.Add("SWEEP records=1,1000\n" + set + "\nTABLE t x(records)\nCOL \"a\" mean(access)\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile("fuzz.airql", src)
		if err == nil {
			if prog == nil {
				t.Fatal("nil program with nil error")
			}
			for _, fast := range []bool{false, true} {
				errs := newExecutor(prog, Options{Fast: fast}).pointConfigs(func(_ int, cfg *core.Config) {
					if err := cfg.Validate(); err != nil {
						t.Fatalf("Compile accepted a point Validate rejects: %v", err)
					}
				})
				if errs != nil {
					t.Fatalf("Compile accepted a script whose points fail: %v", errs)
				}
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
