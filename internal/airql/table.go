package airql

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Table is one figure or table: an x column plus one value column per
// series, as Execute builds it and the EMIT sinks write it.
type Table struct {
	// ID names the paper artifact, e.g. "fig4a".
	ID string
	// Title is a human-readable description.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Columns are the series names in display order.
	Columns []string
	// Rows hold the sweep points.
	Rows []Row
	// Notes carry free-form context (scheme parameters, workload).
	Notes []string
}

// Row is one sweep point; Cells align with Table.Columns and NaN marks a
// series without a value at this x (e.g. no analytical model).
type Row struct {
	X     float64
	Cells []float64
}

// AddRow appends a row, checking its arity.
func (t *Table) AddRow(x float64, cells ...float64) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("airql: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, Row{X: x, Cells: cells})
}

// Note appends a context line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// cell formats one value for text output.
func cell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	header := append([]string{t.XLabel}, t.Columns...)
	rows := make([][]string, 0, len(t.Rows)+1)
	rows = append(rows, header)
	for _, r := range t.Rows {
		line := make([]string, 0, len(header))
		line = append(line, cell(r.X))
		for _, c := range r.Cells {
			line = append(line, cell(c))
		}
		rows = append(rows, line)
	}
	widths := make([]int, len(header))
	for _, line := range rows {
		for i, s := range line {
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s (%s)\n", t.ID, t.Title, t.YLabel); err != nil {
		return err
	}
	for ri, line := range rows {
		var b strings.Builder
		for i, s := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat(" ", widths[i]-len(s)))
			b.WriteString(s)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
		if ri == 0 {
			total := 0
			for _, wd := range widths {
				total += wd + 2
			}
			if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
				return err
			}
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV with the x column first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append([]string{t.XLabel}, t.Columns...)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		line := make([]string, 0, len(t.Columns)+1)
		line = append(line, strconv.FormatFloat(r.X, 'g', -1, 64))
		for _, c := range r.Cells {
			if math.IsNaN(c) {
				line = append(line, "")
			} else {
				line = append(line, strconv.FormatFloat(c, 'g', -1, 64))
			}
		}
		if err := cw.Write(line); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Column returns the values of a named series, aligned with Rows.
func (t *Table) Column(name string) ([]float64, bool) {
	for i, c := range t.Columns {
		if c == name {
			out := make([]float64, len(t.Rows))
			for j, r := range t.Rows {
				out[j] = r.Cells[i]
			}
			return out, true
		}
	}
	return nil, false
}

// WriteMarkdown renders the table as a GitHub-flavored markdown table, for
// pasting experiment output into documentation.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "**%s — %s** (%s)\n\n", t.ID, t.Title, t.YLabel); err != nil {
		return err
	}
	header := append([]string{t.XLabel}, t.Columns...)
	if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(header, " | ")); err != nil {
		return err
	}
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintf(w, "|%s|\n", strings.Join(sep, "|")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cells := make([]string, 0, len(header))
		cells = append(cells, cell(r.X))
		for _, c := range r.Cells {
			cells = append(cells, cell(c))
		}
		if _, err := fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | ")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n*%s*\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
