// Command airql compiles and runs airql scenario scripts — the pipeline
// DSL (SWEEP | RUN | TABLE | EMIT) that generates every experiment
// family in this repository. Scripts name knobs from the simulator's
// real configuration surface; the compiler type-checks every one against
// it and reports misuse with line:column positions before anything runs.
//
// Examples:
//
//	airql -run scenarios/fig4.airql     # compile, run, honour EMIT sinks
//	airql -check scenarios/*.airql      # compile only; report errors
//	airql -list                         # list the embedded scenarios
//	airql -fast -out /tmp fig5          # embedded script, fast profile
//	airql -fast -print md fig4          # also print every table as markdown
//	airql -fast -set fault.rate=0.01 -set multi.channels=2 fig4
//
// A script argument is a path if it exists on disk; otherwise it names
// an embedded scenario ("fig4" or "fig4.airql"). EMIT csv(...) paths are
// joined to -out; summary(stdout) sinks write to standard output. A
// script with no EMIT stage prints its tables as aligned text. Each
// -set knob=value applies a session-wide setting to every point before
// the script's own SETs: a script's fault.* knobs replace the session
// fault config, its multi.* knobs override single fields.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/scenarios"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airql:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airql", flag.ContinueOnError)
	check := fs.Bool("check", false, "compile the scripts and report errors, but do not run them")
	list := fs.Bool("list", false, "list the embedded scenario scripts and exit")
	runMode := fs.Bool("run", false, "compile and run the scripts (the default mode)")
	fast := fs.Bool("fast", false, "reduced workloads and relaxed stopping rule (selects the scripts' fast(...) variants)")
	seed := fs.Int64("seed", 0, "seed override; wins over a script's RUN seed (0 = default)")
	shards := fs.Int("shards", 0, "shards per simulation run; results depend on (seed, shards) only (0 = the script's RUN shards, else one request stream)")
	outDir := fs.String("out", ".", "root directory EMIT csv(...) paths are resolved against")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines")
	printForm := fs.String("print", "", "also print every table to stdout as text, md (markdown) or plot (ASCII chart)")
	var sets []string
	fs.Func("set", "session-wide knob=value applied to every point, e.g. fault.rate=0.01 or multi.channels=2 (repeatable; see DESIGN.md §11 for the knobs)", func(s string) error {
		sets = append(sets, s)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range scenarios.Names() {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	files := fs.Args()
	if len(files) == 0 {
		return fmt.Errorf("no scripts given; use -list for the embedded scenarios or pass *.airql paths")
	}
	if *check && *runMode {
		return fmt.Errorf("-check and -run are mutually exclusive")
	}
	write, ok := printers[*printForm]
	if !ok && *printForm != "" {
		return fmt.Errorf("-print %q: want text, md or plot", *printForm)
	}
	settings, err := airql.ParseSettings(sets)
	if err != nil {
		return err
	}

	opt := airql.Options{Fast: *fast, Seed: *seed, Shards: *shards, Settings: settings}
	if !*quiet {
		opt.Progress = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", a...)
		}
	}

	failed := 0
	for _, arg := range files {
		file, src, err := load(arg)
		if err != nil {
			return err
		}
		prog, err := airql.Compile(file, src)
		if err != nil {
			if !*check {
				return err
			}
			failed++
			fmt.Fprintln(out, err)
			continue
		}
		if *check {
			fmt.Fprintf(out, "%s: ok\n", file)
			continue
		}
		tables, err := airql.Execute(prog, opt)
		if err != nil {
			return err
		}
		if err := airql.Emit(prog, tables, *outDir, out); err != nil {
			return err
		}
		w := write
		if w == nil && !hasSinks(prog) {
			w = printers["text"]
		}
		for i := 0; w != nil && i < len(tables); i++ {
			if err := w(tables[i], out); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scripts failed to compile", failed, len(files))
	}
	return nil
}

// printers are the -print forms.
var printers = map[string]func(*airql.Table, io.Writer) error{
	"text": (*airql.Table).WriteText,
	"md":   (*airql.Table).WriteMarkdown,
	"plot": func(tb *airql.Table, w io.Writer) error { return tb.WritePlot(w, 72, 20) },
}

// load resolves a script argument: an on-disk path wins; otherwise the
// argument names an embedded scenario, with ".airql" optional.
func load(arg string) (file, src string, err error) {
	if b, err := os.ReadFile(arg); err == nil {
		return arg, string(b), nil
	} else if !os.IsNotExist(err) {
		return "", "", err
	}
	name := arg
	if !strings.HasSuffix(name, ".airql") {
		name += ".airql"
	}
	src, serr := scenarios.Source(name)
	if serr != nil {
		return "", "", fmt.Errorf("%s: not a file and not an embedded scenario (have: %s)",
			arg, strings.Join(scenarios.Names(), " "))
	}
	return name, src, nil
}

func hasSinks(prog *airql.Program) bool {
	if len(prog.LooseSinks) > 0 {
		return true
	}
	for _, t := range prog.Tables {
		if len(t.Sinks) > 0 {
			return true
		}
	}
	return false
}
