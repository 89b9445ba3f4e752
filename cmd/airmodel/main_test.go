package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/airql"
)

func TestRunPrintsSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-from", "1000", "-to", "3000", "-step", "1000"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[0], "dist At") || !strings.Contains(lines[0], "sig Tt") {
		t.Fatalf("header incomplete: %s", lines[0])
	}
}

// row runs airmodel at one record count and returns the printed row's
// fields: records, then At/Tt for flat, dist, (1,m), hash and sig.
func row(t *testing.T, records int, sets ...string) []string {
	t.Helper()
	args := []string{"-from", strconv.Itoa(records), "-to", strconv.Itoa(records)}
	for _, s := range sets {
		args = append(args, "-set", s)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row:\n%s", len(lines), out.String())
	}
	return strings.Fields(lines[1])
}

// TestRunDerivedFanout: the tree layout comes from the built broadcast,
// so a wider key (fewer index entries per bucket) changes the tree
// schemes' curves and leaves flat's alone.
func TestRunDerivedFanout(t *testing.T) {
	base := row(t, 1000)
	wide := row(t, 1000, "data.keybytes=60")
	if base[1] != wide[1] {
		t.Errorf("flat At moved with the key width: %s -> %s", base[1], wide[1])
	}
	if base[4] == wide[4] {
		t.Errorf("dist Tt %s unchanged by a wider key; fanout not derived from the layout", base[4])
	}
}

// TestRunMatchesFig4Analytic pins the default sweep's 7,000-record row to
// the (A) cells of the committed Figure 4 tables, at printed precision.
func TestRunMatchesFig4Analytic(t *testing.T) {
	got := row(t, 7000)
	for _, c := range []struct {
		file, col string
		field     int
	}{
		{"fig4a.csv", "flat (A)", 1},
		{"fig4a.csv", "distributed (A)", 3},
		{"fig4b.csv", "distributed (A)", 4},
		{"fig4a.csv", "hashing (A)", 7},
		{"fig4b.csv", "hashing (A)", 8},
		{"fig4a.csv", "signature (A)", 9},
		{"fig4b.csv", "signature (A)", 10},
	} {
		want := fmt.Sprintf("%.0f", csvCell(t, c.file, "7000", c.col))
		if got[c.field] != want {
			t.Errorf("%s %q at 7000 records: airmodel prints %s, want %s", c.file, c.col, got[c.field], want)
		}
	}
}

// csvCell reads one cell of a committed results table by row key and
// column header.
func csvCell(t *testing.T, file, key, col string) float64 {
	t.Helper()
	f, err := os.Open("../../results/" + file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	j := -1
	for i, h := range recs[0] {
		if h == col {
			j = i
		}
	}
	for _, r := range recs[1:] {
		if j >= 0 && r[0] == key {
			v, err := strconv.ParseFloat(r[j], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("%s has no cell (%s, %q)", file, key, col)
	return 0
}

func TestRunRejectsBadSweep(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-from", "0"},
		{"-from", "100", "-to", "50"},
		{"-from", "100", "-to", "200", "-step", "0"},
		{"-from", "100", "-to", "100", "-set", "data.keybytes=400"},
		{"-from", "100", "-to", "100", "-set", "fault.rate=0.1"},
		{"-from", "100", "-to", "100", "-set", "fault.model=drop"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestNoFlagShadowsKnob: -set is the only spelling of a knob; no flag
// may share a knob's name.
func TestNoFlagShadowsKnob(t *testing.T) {
	for _, name := range airql.KnobNames() {
		var out bytes.Buffer
		err := run([]string{"-" + name + "=1"}, &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("flag -%s: got %v, want it undefined (use -set %s=...)", name, err, name)
		}
	}
}
