package airql

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", XLabel: "n", YLabel: "y", Columns: []string{"a", "b"}}
	tb.AddRow(1, 10, math.NaN())
	tb.AddRow(2, 20, 4.5)
	tb.Note("hello")
	var text, csvOut bytes.Buffer
	if err := tb.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "hello") {
		t.Fatalf("text output incomplete:\n%s", text.String())
	}
	lines := strings.Split(strings.TrimSpace(csvOut.String()), "\n")
	if len(lines) != 3 || lines[0] != "n,a,b" || !strings.HasPrefix(lines[1], "1,10,") {
		t.Fatalf("csv output wrong:\n%s", csvOut.String())
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := &Table{Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong arity")
		}
	}()
	tb.AddRow(1, 2, 3)
}

func TestWriteMarkdown(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", XLabel: "n", YLabel: "y", Columns: []string{"a"}}
	tb.AddRow(1, 2)
	tb.Note("a note")
	var buf bytes.Buffer
	if err := tb.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| n | a |", "|---|---|", "| 1 | 2 |", "*a note*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWritePlot(t *testing.T) {
	tb := &Table{ID: "p", Title: "plot demo", XLabel: "n", YLabel: "bytes", Columns: []string{"up", "flat", "gone"}}
	for i := 1; i <= 8; i++ {
		tb.AddRow(float64(i), float64(i*1000), 3000, math.NaN())
	}
	var buf bytes.Buffer
	if err := tb.WritePlot(&buf, 40, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ flat") {
		t.Fatalf("legend incomplete:\n%s", out)
	}
	if strings.Contains(out, "gone") {
		t.Fatalf("all-NaN series should be skipped:\n%s", out)
	}
	// The rising series must put glyphs on several distinct rows.
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "*") && strings.Contains(line, "|") {
			rows++
		}
	}
	if rows < 4 {
		t.Fatalf("rising series occupies %d rows, want >= 4:\n%s", rows, out)
	}
}

func TestWritePlotDegenerate(t *testing.T) {
	empty := &Table{ID: "e", Columns: []string{"a"}}
	var buf bytes.Buffer
	if err := empty.WritePlot(&buf, 20, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Fatal("empty table should say so")
	}
	constant := &Table{ID: "c", Columns: []string{"a"}}
	constant.AddRow(1, 5)
	constant.AddRow(2, 5)
	buf.Reset()
	if err := constant.WritePlot(&buf, 20, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") {
		t.Fatal("constant series should still plot")
	}
}
