package airql

import "testing"

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
			`t.airql:1:30: knob availability: value 2 above maximum 1`,
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
