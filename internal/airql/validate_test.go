package airql

import (
	"testing"

	"github.com/airindex/airindex/scenarios"
)

// errStrings compiles a script and returns every diagnostic, formatted.
func errStrings(t *testing.T, src string) []string {
	t.Helper()
	_, err := Compile("t.airql", src)
	if err == nil {
		return nil
	}
	switch e := err.(type) {
	case ErrorList:
		out := make([]string, len(e))
		for i, d := range e {
			out[i] = d.Error()
		}
		return out
	case *Error:
		return []string{e.Error()}
	default:
		t.Fatalf("Compile returned a %T, want *Error or ErrorList", err)
		return nil
	}
}

// TestGoldenErrors pins the exact diagnostics for the validator's most
// common misuse cases: the error text is part of the tool's interface
// (scripts are written against these messages), so a wording change must
// show up in review.
func TestGoldenErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"unknown knob", `
SET scheme=flat recordz=1000
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:2:17: unknown knob "recordz" (knobs: scheme, records, availability, requestmean, zipfs, dozeratio, data.recordbytes, data.keybytes, data.attrs, dist.r, onem.m, hashing.load, signature.sigbytes, signature.bits, signature.groupsize, hybrid.groupsize, fault.model, fault.rate, fault.retries, fault.recovery, multi.channels, multi.switchcost, multi.policy, multi.indexchannels, multi.skew)`,
		}},
		{"unknown scheme", `SWEEP scheme=flat,turbo`, []string{
			`t.airql:1:19: knob scheme: unknown value "turbo" (schemes: bdisk, dist, distributed, flat, hash, hashing, hybrid, onem, sig, sig_integrated, sig_multilevel, signature)`,
			`t.airql:1:1: script has no TABLE and no EMIT; it would compute nothing`,
		}},
		{"out of range", `SET scheme=flat availability=2`, []string{
			`t.airql:1:30: core: availability 2 outside [0,1]`,
			`t.airql:1:1: script has no TABLE and no EMIT; it would compute nothing`,
		}},
		{"not a finite number", `SET scheme=flat requestmean=0/0`, []string{
			`t.airql:1:30: knob requestmean: value NaN is not a finite number`,
			`t.airql:1:1: script has no TABLE and no EMIT; it would compute nothing`,
		}},
		{"unit mismatch", `SET scheme=flat zipfs=1KiB`, []string{
			`t.airql:1:23: unit mismatch: knob zipfs is dimensionless but the value has a byte unit`,
			`t.airql:1:1: script has no TABLE and no EMIT; it would compute nothing`,
		}},
		{"scheme-incompatible knob", `SET scheme=flat dist.r=2`, []string{
			`t.airql:1:17: knob dist.r applies only to distributed, but the script also runs scheme "flat"`,
			`t.airql:1:1: script has no TABLE and no EMIT; it would compute nothing`,
		}},
		{"zipf workload on one record", `
SWEEP records=1
SET scheme=flat zipfs=2
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:23: core: zipf workload (s=2) needs at least 2 records, have 1: rank generation is undefined for a single record",
		}},
		{"serial scheme with unbounded retries", `
SWEEP records=1000,2000
SET scheme=flat availability=0.5 fault.rate=0.01
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:45: core: scheme \"flat\" is serial (concludes absence only after a full clean pass); with faults enabled and availability 0.5 < 1, unbounded retries (Faults.MaxRetries=0) may never terminate on a missing key — set Faults.MaxRetries",
		}},
		{"indexdata without a data channel", `
SWEEP records=1000,2000
SET scheme=onem multi.channels=2 multi.policy=indexdata multi.indexchannels=2
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:77: multichannel: indexdata with 2 index channels needs at least 3 channels total (have 2); leave one data channel",
		}},
		{"bits per field beyond the signature", `
SWEEP records=1000,2000
SET scheme=sig signature.sigbytes=4 signature.bits=40
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:52: signature: BitsPerField 40 exceeds signature bits 32",
		}},
		{"hashing load below one", `
SWEEP records=1000,2000
SET scheme=hash hashing.load=0.5
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:30: hashing: LoadFactor 0.5 must be at least 1",
		}},
		{"record no wider than its key", `
SWEEP records=1000,2000
SET scheme=flat data.recordbytes=10
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:34: datagen: RecordSize 10 must exceed KeySize 25",
		}},
		{"switch cost on one channel", `
SWEEP records=1000,2000
SET scheme=flat multi.switchcost=64
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:3:34: multichannel: switch cost 64 set but channels is 0; set Channels to enable the subsystem",
		}},
		{"invalid point blamed on the axis value", `
SET scheme=flat
SWEEP records=1000,2000
SWEEP avail=0.5,1 faultrate=0,0.01
TABLE t x(records)
COL "a" mean(access){avail=1,faultrate=0}
`, []string{
			"t.airql:4:31: core: scheme \"flat\" is serial (concludes absence only after a full clean pass); with faults enabled and availability 0.5 < 1, unbounded retries (Faults.MaxRetries=0) may never terminate on a missing key — set Faults.MaxRetries",
		}},
		{"computed value carries the file", `
SET scheme=onem
SWEEP records=1200
SET onem.m=records/7
TABLE t x(records)
COL "a" mean(access)
`, []string{
			"t.airql:4:19: knob onem.m takes an integer, not 171.42857142857142 (computed value)",
		}},
		{"sweep too large to check", `
SET scheme=flat
SWEEP records=1..1000:1 zipfs=0..999:1
TABLE t x(records)
COL "a" mean(access){zipfs=0}
`, []string{
			"t.airql:3:25: the sweep expands to more than 100000 points",
		}},
		{"never sets the scheme", `
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:1:1: script never sets the scheme (SWEEP scheme=... or SET scheme=...)`,
		}},
		{"bad metric argument", `
SET scheme=flat
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(foo)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:5:9: mean takes access, tuning, probes or energy, not "foo"`,
		}},
		{"selector key not an axis", `
SET scheme=flat
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access){speed=1}
EMIT csv(results/t.csv)
`, []string{
			`t.airql:5:22: selector key "speed" is not an axis`,
		}},
		{"selector pins the x axis", `
SET scheme=flat
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access){records=1500}
EMIT csv(results/t.csv)
`, []string{
			`t.airql:5:22: selector pins records, which is the table's x axis`,
		}},
		{"sim metric in attrquery mode", `
RUN mode=attrquery
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:5:9: metric mean is a simulator metric; attrquery columns use attr(...)`,
		}},
		{"engine is not a RUN option", `
SET scheme=flat
SWEEP records=1000,2000
RUN engine=cohort
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:4:5: unknown RUN option "engine" (want seed, shards or mode)`,
		}},
		{"duplicate axis", `
SET scheme=flat
SWEEP records=1000,2000
SWEEP records=3000,4000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:4:7: duplicate axis records`,
			`t.airql:6:9: metric mean does not pin axis records (add {records=...} or make it the x axis)`,
		}},
		{"x references two axes", `
SET scheme=flat
SWEEP records=1000,2000
SWEEP zipfs=0,1.5
TABLE t x(records*zipfs)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:5:18: table t: the x expression must reference exactly one axis, found 2`,
			`t.airql:6:9: metric mean does not pin axis records (add {records=...} or make it the x axis)`,
			`t.airql:6:9: metric mean does not pin axis zipfs (add {zipfs=...} or make it the x axis)`,
		}},
		{"absolute csv path", `
SET scheme=flat
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(/etc/passwd.csv)
`, []string{
			`t.airql:6:6: csv path "/etc/passwd.csv" must be relative (it is joined to the output root)`,
		}},
		{"string axis that is not a knob", `
SET scheme=flat
SWEEP speed=slow,fastest
TABLE t x(speed)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:3:7: axis speed holds names but is not a knob; string axes must be knobs (e.g. scheme)`,
			`t.airql:4:11: table t: the x expression must be numeric`,
		}},
		{"fault retries and recovery with the layer off", `
SET scheme=dist fault.retries=5 fault.recovery=cycle
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:2:17: knob fault.retries needs fault.model (other than none) or fault.rate; without either the fault layer stays off and the knob does nothing`,
			`t.airql:2:33: knob fault.recovery needs fault.model (other than none) or fault.rate; without either the fault layer stays off and the knob does nothing`,
		}},
		{"fault retries under the none model", `
SET scheme=dist fault.model=none fault.rate=0.1 fault.retries=5
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:2:49: knob fault.retries needs fault.model (other than none) or fault.rate; without either the fault layer stays off and the knob does nothing`,
		}},
		{"RUN shards above the fast profile's request cap", `
RUN shards=30000
SWEEP records=1000,2000
SET scheme=flat
TABLE t x(records)
COL "a" mean(access)
EMIT csv(results/t.csv)
`, []string{
			`t.airql:2:12: core: shards 30000 exceeds max requests 20000; every shard needs at least one request of budget`,
		}},
		{"multi-valued axis in a COL expression", `
SWEEP onem.m=1,2
SWEEP records=1000,2000
SET scheme=onem
TABLE t x(records)
COL "a" mean(access){onem.m=1} + onem.m
`, []string{
			`t.airql:6:34: axis onem.m takes several values; a COL expression reads only the x axis and single-valued axes`,
		}},
		{"selector value missing from one profile", `
SWEEP onem.m=1,2,4 fast(1,2)
SWEEP records=1000,2000
SET scheme=onem
TABLE t x(records)
COL "a" mean(access){onem.m=4}
`, []string{
			`t.airql:6:29: axis onem.m has no value 4 under the fast profile`,
		}},
		{"min over a name", `
SWEEP scheme=dist
SWEEP records=1000,2000
TABLE t x(records)
COL "a" min(mean(access), 3, scheme)
`, []string{
			`t.airql:5:9: arithmetic over names is not defined`,
		}},
		{"selector pins an axis twice", `
SWEEP scheme=flat,dist
SWEEP records=1000,2000
TABLE t x(records)
COL "a" mean(access){scheme=flat,scheme=dist}
`, []string{
			`t.airql:5:34: selector pins scheme twice`,
		}},
		{"bare counter does not pin an axis", `
SWEEP scheme=flat,dist
SWEEP records=1000,2000
TABLE t x(records)
COL "a" requests
`, []string{
			`t.airql:5:9: metric requests does not pin axis scheme (add {scheme=...} or make it the x axis)`,
		}},
		{"implicit table in attrquery mode", `
RUN mode=attrquery
SWEEP records=1000,2000
EMIT csv(results/t.csv)
`, []string{
			`t.airql:1:1: EMIT without TABLE reads simulator metrics; attrquery columns use attr(...)`,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := errStrings(t, tc.src)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %q\nwant: %q", len(got), len(tc.want), got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], tc.want[i])
				}
			}
		})
	}

	// A session shard count is checked once, before any point is built,
	// and blamed on the flag rather than on each point's records value.
	prog, err := Compile("t.airql", "SWEEP records=1000,2000,3000\nSET scheme=flat\nTABLE t x(records)\nCOL \"a\" mean(access)\nEMIT csv(results/t.csv)\n")
	if err != nil {
		t.Fatal(err)
	}
	want := "-shards: core: shards 100000 exceeds max requests 60000; every shard needs at least one request of budget"
	if err := Check(prog, Options{Shards: 100000}); err == nil || err.Error() != want {
		t.Errorf("session shards:\ngot:  %v\nwant: %s", err, want)
	}
}

// TestValidScriptsCompile: the validator accepts the constructs every
// scenario relies on — aliases, fast variants, ranges, arithmetic SETs,
// bare metrics, and metric selectors.
func TestValidScriptsCompile(t *testing.T) {
	for _, src := range []string{
		`SWEEP scheme=flat,dist k=1,2,4 fast(1,2) | SET records=2000 | EMIT csv(results/x.csv)`,
		`
SWEEP faultrate=0..0.10:0.02
SWEEP scheme=sig
TABLE t x(faultrate*100)
COL "restarts/req" restarts/requests
EMIT csv(results/t.csv) summary(stdout)
`,
		`
SET scheme=dist records=10000 fast(2500)
SWEEP dist.r=0,1,2,3
TABLE "ablate" title("r") x(dist.r)
COL "access (S)" mean(access)
COL "cycle" cycle_bytes
NOTE "workload: {records} records over {count(dist.r)} depths"
EMIT csv(results/a.csv)
`,
		`
SWEEP faultrate=0,0.1
SWEEP scheme=dist
SET fault.retries=3 fault.recovery=cycle
TABLE t x(faultrate)
COL "a" mean(access)
EMIT csv(results/t.csv)
`,
		`
SWEEP fault.model=none,ge
SWEEP records=1000,2000
SET scheme=dist fault.rate=0.1 fault.retries=3
TABLE t x(records)
COL "a" mean(access){fault.model=ge}
EMIT csv(results/t.csv)
`,
		`
SWEEP pct=0,50,100
SWEEP scheme=flat
SET availability=pct/100
TABLE t x(pct)
COL "flat" mean(access){scheme=flat}
EMIT csv(results/t.csv)
`,
	} {
		if _, err := Compile("t.airql", src); err != nil {
			t.Errorf("valid script rejected: %v\nscript:\n%s", err, src)
		}
	}
}

// TestErrorListSummary: a multi-error list prints its first diagnostic
// and counts the rest, in the singular for one.
func TestErrorListSummary(t *testing.T) {
	e := &Error{File: "t.airql", Pos: Pos{Line: 1, Col: 2}, Msg: "m"}
	for _, c := range []struct {
		list ErrorList
		want string
	}{
		{ErrorList{e}, "t.airql:1:2: m"},
		{ErrorList{e, e}, "t.airql:1:2: m (and 1 more error)"},
		{ErrorList{e, e, e}, "t.airql:1:2: m (and 2 more errors)"},
	} {
		if got := c.list.Error(); got != c.want {
			t.Errorf("%d errors: got %q, want %q", len(c.list), got, c.want)
		}
	}
}

// compiled keeps BenchmarkCompile's result live.
var compiled *Program

// BenchmarkCompile is the fig4-paper benchmark's setup_s at the layer
// where it is spent: one Compile of scenarios/fig4.airql.
func BenchmarkCompile(b *testing.B) {
	src, err := scenarios.Source("fig4.airql")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled, err = Compile("fig4.airql", src); err != nil {
			b.Fatal(err)
		}
	}
}
