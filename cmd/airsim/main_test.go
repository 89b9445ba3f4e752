package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/airql"
)

func TestRunSmallSimulation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "distributed", "-records", "300",
		"-min-requests", "300", "-max-requests", "600", "-accuracy", "0.1", "-round", "150",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheme            distributed", "access time", "tuning time", "found/not found"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunHeaderEchoesSettings: the header reports the data geometry the
// run used, after -set, not flag defaults.
func TestRunHeaderEchoesSettings(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "flat", "-records", "300", "-set", "data.recordbytes=1000", "-set", "data.keybytes=40",
		"-min-requests", "300", "-max-requests", "600", "-accuracy", "0.1", "-round", "150",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"records           300 (record 1000B, key 40B)", "param bucket_size  1005"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestNoFlagShadowsKnob: -set is the only spelling of a knob; no flag
// may share a knob's name except the per-run scheme and records.
func TestNoFlagShadowsKnob(t *testing.T) {
	for _, name := range airql.KnobNames() {
		if name == "scheme" || name == "records" {
			continue
		}
		var out bytes.Buffer
		// -records=0 makes a shadowing flag fail fast instead of running.
		err := run([]string{"-records=0", "-" + name + "=1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("flag -%s: got %v, want it undefined (use -set %s=...)", name, err, name)
		}
	}
}

func TestRunWithErrorInjection(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "hashing", "-records", "200", "-set", "fault.model=drop", "-set", "fault.rate=0.1",
		"-min-requests", "200", "-max-requests", "400", "-accuracy", "0.2", "-round", "100",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "error restarts") {
		t.Fatalf("error injection run should report restarts:\n%s", out.String())
	}
}

// TestRunWithFaultFlags: -set fault.* settings reach the faults layer
// and the run reports the recovery counters.
func TestRunWithFaultFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "distributed", "-records", "200",
		"-set", "fault.model=drop", "-set", "fault.rate=0.1", "-set", "fault.retries=3", "-set", "fault.recovery=cycle",
		"-min-requests", "200", "-max-requests", "400", "-accuracy", "0.2", "-round", "100",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"error restarts", "model=drop", "recovery=cycle", "wasted tuning", "unrecovered"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("faulty run output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadFaultFlags: unknown model and recovery names and a
// retry budget with no fault model are refused.
func TestRunRejectsBadFaultFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-set", "fault.model=bogus", "-records", "100"}, &out); err == nil {
		t.Fatal("unknown fault model accepted")
	}
	if err := run([]string{"-set", "fault.rate=0.1", "-set", "fault.recovery=bogus", "-records", "100"}, &out); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
	err := run([]string{"-set", "fault.retries=3", "-records", "100"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-set:1:1: knob fault.retries needs fault.model") {
		t.Fatalf("retries without a fault model: got %v", err)
	}
}

// TestRunFaultRateMeansDrop: a rate with no model runs the drop model,
// as a script's SET fault.rate does, instead of a perfect channel.
func TestRunFaultRateMeansDrop(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "distributed", "-records", "300", "-set", "fault.rate=0.3",
		"-min-requests", "300", "-max-requests", "600", "-accuracy", "0.1", "-round", "150",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"error restarts", "model=drop rate=0.3"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("fault.rate run output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunShardsFlag: -shards reaches the engine and the run reports the
// same request accounting as a sequential run.
func TestRunShardsFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "distributed", "-records", "300", "-shards", "4",
		"-min-requests", "300", "-max-requests", "600", "-accuracy", "0.1", "-round", "150",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "requests") {
		t.Fatalf("sharded run output incomplete:\n%s", out.String())
	}
	if err := run([]string{"-shards", "-2", "-records", "100"}, &out); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestRunWithChannelFlags: -set multi.* settings reach the multichannel
// layer and the run reports the switch counters.
func TestRunWithChannelFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "distributed", "-records", "300", "-set", "multi.channels=2", "-set", "multi.switchcost=64",
		"-min-requests", "300", "-max-requests", "600", "-accuracy", "0.1", "-round", "150",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"channels          2 (replicated allocation, switch cost 64B)", "channel switches"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("multichannel run output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadChannelFlags: unknown policies and invalid
// combinations are refused before the simulation starts.
func TestRunRejectsBadChannelFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-set", "multi.channels=2", "-set", "multi.policy=bogus", "-records", "100"}, &out); err == nil {
		t.Fatal("unknown allocation policy accepted")
	}
	if err := run([]string{"-set", "multi.channels=-2", "-records", "100"}, &out); err == nil {
		t.Fatal("negative channel count accepted")
	}
	if err := run([]string{"-set", "scheme=flat", "-records", "100"}, &out); err == nil {
		t.Fatal("-set scheme accepted; airsim takes the scheme from -scheme")
	}
	if err := run([]string{"-scheme", "flat", "-set", "multi.channels=3", "-set", "multi.policy=indexdata", "-records", "100"}, &out); err == nil {
		t.Fatal("index/data allocation accepted for an index-less scheme")
	}
}

// TestRunErrorPrefixOnce: a config Validate rejects fails with the
// validator's message, its package prefix once, and at the -set flag
// that made it invalid when there is one.
func TestRunErrorPrefixOnce(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-accuracy", "2"}, "core: accuracy 2 outside (0,1)"},
		{[]string{"-set", "availability=0.5", "-set", "fault.rate=0.01"}, `-set:2:12: core: scheme "flat" is serial`},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-scheme", "flat", "-records", "100"}, c.args...), &out)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) || strings.Count(err.Error(), "core:") != 1 {
			t.Errorf("%v: got %v, want an error starting %q with one core: prefix", c.args, err, c.want)
		}
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scheme", "nope", "-records", "100"}, &out); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-records", "not-a-number"}, &out); err == nil {
		t.Fatal("bad flag value accepted")
	}
}
