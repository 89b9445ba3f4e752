// Command airlint runs the project's static-analysis suite: the
// determinism, floatcompare, confinement, unitsafety, exhaustive,
// mergecomplete, byteclock, hotalloc, maporder, seedtaint, and
// escapecheck analyzers plus `//airlint:allow` / `//airlint:hotpath`
// directive checking (see internal/lint).
//
// Usage:
//
//	airlint ./...                 # lint the whole module
//	airlint ./internal/sim        # lint one package
//	airlint -only maporder,hotalloc ./...  # a subset, for iteration
//	airlint -escape ./...         # also cross-check hotpaths vs the compiler
//	airlint -json ./...           # one JSON object per finding
//	airlint -list                 # describe the analyzers
//
// Exit status: 0 when clean, 1 when any diagnostic is reported, 2 on
// usage or load errors. Findings print as file:line:col: [analyzer] msg,
// or with -json as one {"file","line","col","analyzer","message"} object
// per line (no summary line), for machine consumers such as the CI
// problem matcher in .github/problem-matchers/airlint.json.
//
// The escapecheck analyzer needs the compiler's escape diagnostics:
// -escape shells out to `go build -gcflags='-m -m'` over the selected
// packages (the Go build cache replays the output for unchanged code,
// so repeat runs stay fast). Selecting it with -only escapecheck
// implies -escape. Without escape data the analyzer is skipped and its
// suppressions are ignored rather than reported stale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/airindex/airindex/internal/lint"
)

// finding is the JSON shape of one diagnostic under -json.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "airlint:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("airlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit one JSON object per finding instead of text")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all; directive checking always runs)")
	escape := fs.Bool("escape", false, "build with -gcflags='-m -m' and cross-check //airlint:hotpath functions against the compiler's escape analysis")
	dir := fs.String("C", ".", "change to this directory before resolving patterns")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(out, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(out, "%-14s %s\n", "directive", "check //airlint:allow suppressions and //airlint:hotpath markers (unknown, unused or misplaced ones are errors)")
		return 0, nil
	}
	var names []string
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
				if n == "escapecheck" {
					// Selecting the analyzer is asking for the build.
					*escape = true
				}
			}
		}
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, modPath, err := lint.FindModule(*dir)
	if err != nil {
		return 2, err
	}
	loader := lint.NewLoader(root, modPath)
	rels, err := loader.Expand(patterns)
	if err != nil {
		return 2, err
	}
	if len(rels) == 0 {
		return 2, fmt.Errorf("no packages match %v", patterns)
	}

	pkgs := make([]*lint.Package, 0, len(rels))
	for _, rel := range rels {
		pkg, err := loader.Load(rel)
		if err != nil {
			return 2, err
		}
		pkgs = append(pkgs, pkg)
	}
	opts := lint.Options{Only: names}
	if *escape {
		opts.Escapes, err = lint.RunEscapeBuild(root, rels)
		if err != nil {
			return 2, err
		}
	}
	diags, err := lint.Check(pkgs, opts)
	if err != nil {
		return 2, err
	}

	enc := json.NewEncoder(out)
	findings := 0
	for _, d := range diags {
		findings++
		if *jsonOut {
			if err := enc.Encode(finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			}); err != nil {
				return 2, err
			}
		} else {
			fmt.Fprintln(out, d)
		}
	}
	if findings > 0 {
		if !*jsonOut {
			fmt.Fprintf(out, "airlint: %d finding(s)\n", findings)
		}
		return 1, nil
	}
	return 0, nil
}
