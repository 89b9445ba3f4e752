package airql

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/signature"
)

// axisRT is one sweep axis resolved under the active profile.
type axisRT struct {
	decl *AxisDecl
	vals []Scalar
	kn   *knob
}

// executor lowers a validated program onto the simulation engines.
type executor struct {
	prog *Program
	opt  Options

	axes    []axisRT
	stride  []int // linear-index stride per axis (axis 0 is slowest)
	total   int
	profile int // the index of the active profile in a node's values

	cfgs []core.Config
	// base is every point's config before its scheme and knobs (the
	// profile's DefaultConfig, which depends on the scheme only by name,
	// so flat's serves); steps and pf are pointConfig's scratch.
	base  core.Config
	steps []Setting
	pf    pointFaults
	// shardsErr is an invalid shard count, which every point would fail.
	shardsErr *Error
	results   []*core.Result
	attrs     []attrRow // attrquery mode: one row per records value
	mode      string
}

// Execute runs every sweep point of a program Validate (or Compile) has
// accepted and evaluates its tables' checked nodes over the results,
// returning the tables in declaration order. It first checks every point
// as Check does, so a bad combination fails before any point runs. All
// points run through the shared concurrent scheduler (runPoints) under
// the (Seed, Shards) determinism contract: results depend on each point's
// config only, never on scheduling.
func Execute(prog *Program, opt Options) ([]*Table, error) {
	ex, err := check(prog, opt)
	if err != nil {
		return nil, err
	}
	if ex.mode == ModeAttrQuery {
		err = ex.runAttrQuery()
	} else {
		ex.results, err = runPoints(ex.opt, ex.cfgs)
	}
	if err != nil {
		return nil, err
	}

	decls := prog.Tables
	if len(decls) == 0 {
		decls = prog.implicit[ex.profile : ex.profile+1]
	}
	tables := make([]*Table, len(decls))
	for i, decl := range decls {
		tables[i] = ex.buildTable(decl)
	}
	return tables, nil
}

// Check builds every point of a compiled program under opt, session
// settings included, and reports each point core.Config.Validate
// rejects, as Execute does before it runs any.
func Check(prog *Program, opt Options) error {
	_, err := check(prog, opt)
	return err
}

func check(prog *Program, opt Options) (*executor, error) {
	if !prog.checked {
		return nil, &Error{File: prog.File, Msg: "program not compiled: Compile or Validate it first"}
	}
	ex := newExecutor(prog, opt)
	ex.cfgs = make([]core.Config, ex.total)
	if errs := ex.pointConfigs(func(li int, cfg *core.Config) { ex.cfgs[li] = *cfg }); len(errs) > 0 {
		return nil, errs
	}
	return ex, nil
}

// newExecutor merges the program's RUN settings into the session options
// (a session seed or shard count wins) and resolves its axes under the
// active profile.
func newExecutor(prog *Program, opt Options) *executor {
	mode := ModeSim
	shardsFile, shardsPos := "-shards", Pos{}
	for _, r := range prog.Runs {
		switch r.Key {
		case "seed":
			if opt.Seed == 0 {
				opt.Seed = int64(r.Val.Num)
			}
		case "shards":
			if opt.Shards == 0 {
				opt.Shards = int(r.Val.Num)
				shardsFile, shardsPos = prog.File, r.Val.Pos
			}
		case "mode":
			mode = r.Val.Str
		}
	}

	ex := &executor{prog: prog, opt: opt, mode: mode, base: opt.profileConfig(flat.Name, opt.ComparisonRecords())}
	if opt.Fast {
		ex.profile = 1
	}
	if opt.Shards != 0 {
		// The profile's base is otherwise valid, so Validate speaks only
		// to the shard count.
		if err := ex.base.Validate(); err != nil {
			ex.shardsErr = &Error{File: shardsFile, Pos: shardsPos, Msg: err.Error()}
		}
	}
	for i := range prog.Axes {
		decl := &prog.Axes[i]
		ex.axes = append(ex.axes, axisRT{
			decl: decl,
			vals: axisValues(decl, opt.Fast),
			kn:   lookupKnob(decl.Name),
		})
	}
	ex.stride = make([]int, len(ex.axes))
	for i := range ex.stride {
		ex.stride[i] = span(prog.Axes, i, opt.Fast)
	}
	ex.total = span(prog.Axes, -1, opt.Fast)
	return ex
}

// span is how many points one step of axis i spans under a profile: the
// product of the later axes' lengths (with i = -1, the sweep's size).
func span(axes []AxisDecl, i int, fast bool) int {
	n := 1
	for j := i + 1; j < len(axes); j++ {
		n *= len(axisValues(&axes[j], fast))
	}
	return n
}

// pointConfigs builds every sweep point's config in linear-index order
// and hands each one that passes its check to visit. It returns the
// diagnostics of the points that fail, each one once; an invalid shard
// count is reported once, before any point is built.
func (ex *executor) pointConfigs(visit func(li int, cfg *core.Config)) ErrorList {
	if ex.shardsErr != nil {
		return ErrorList{ex.shardsErr}
	}
	var errs ErrorList
	var cfg core.Config
	idx := make([]int, len(ex.axes))
	for li := 0; li < ex.total; li++ {
		for i := range ex.axes {
			idx[i] = li / ex.stride[i] % len(ex.axes[i].vals)
		}
		if err := ex.pointConfig(idx, &cfg); err != nil {
			errs = append(errs, err)
		} else {
			visit(li, &cfg)
		}
	}
	return errs.unique()
}

// profileExpr picks a SET's expression under the active profile.
func (ex *executor) profileExpr(set *SetDecl) *Expr {
	if ex.opt.Fast && set.FastExpr != nil {
		return set.FastExpr
	}
	return set.Expr
}

// pointConfig assembles one sweep point's configuration into cfg and
// checks it with core.Config.Validate. The scheme and the records value
// give the base config; the session settings, the axis values and the
// SET stages then apply in that order, and the fault.* staging collapses
// into cfg.Faults (see fold). A point that fails is blamed on the setting
// that ended its longest valid prefix — a -set flag, an axis value or a
// SET's expression — or on the records value (else the scheme) when the
// base itself fails. A knob the point's scheme ignores is reported at the
// knob's name.
func (ex *executor) pointConfig(idx []int, cfg *core.Config) *Error {
	scheme, basePos, err := ex.schemeFor(idx)
	if err != nil {
		return err
	}
	steps := append(ex.steps[:0], ex.opt.Settings...)
	for i := range ex.axes {
		ax := &ex.axes[i]
		if ax.kn == nil {
			continue
		}
		if err := ex.compatible(ax.kn, scheme, ax.decl.Pos); err != nil {
			return err
		}
		// checkAxes has checked every axis value's scalar.
		steps = append(steps, Setting{kn: ax.kn, val: ax.vals[idx[i]], file: ex.prog.File})
	}
	for i := range ex.prog.Sets {
		set := &ex.prog.Sets[i]
		kn := lookupKnob(set.Knob)
		if err := ex.compatible(kn, scheme, set.Pos); err != nil {
			return err
		}
		val := set.nodes[ex.profile].eval(ex, idx)
		val.Pos = ex.profileExpr(set).Pos
		s := Setting{kn: kn, val: val, file: ex.prog.File}
		if msg := checkKnobScalar(kn, val); msg != "" {
			return s.errorf("%s (computed value)", msg)
		}
		steps = append(steps, s)
	}
	ex.steps = steps
	*cfg = ex.base
	cfg.Scheme = scheme
	for _, s := range steps {
		if s.kn.name == "records" {
			cfg.Data.NumRecords = int(s.val.Num)
			basePos = s.val.Pos
		}
	}
	switch blame, verr := assemble(cfg, &ex.pf, steps); {
	case verr == nil:
		return nil
	case blame < 0:
		return &Error{File: ex.prog.File, Pos: basePos, Msg: verr.Error()}
	default:
		return steps[blame].errorf("%v", verr)
	}
}

// compatible refuses a knob the point's scheme ignores.
func (ex *executor) compatible(kn *knob, scheme string, at Pos) *Error {
	if kn.schemes == nil || slices.Contains(kn.schemes, scheme) {
		return nil
	}
	return &Error{File: ex.prog.File, Pos: at, Msg: fmt.Sprintf("knob %s applies only to %s, but the script also runs scheme %q",
		kn.name, strings.Join(kn.schemes, "/"), scheme)}
}

// schemeFor resolves the point's scheme and where it was given: the
// scheme axis value or a SET scheme expression. An attrquery point's
// config is the signature one of its flat-vs-signature pair.
func (ex *executor) schemeFor(idx []int) (string, Pos, *Error) {
	if ex.mode == ModeAttrQuery {
		return signature.Name, Pos{Line: 1, Col: 1}, nil
	}
	if ai := ex.prog.axisIndex("scheme"); ai >= 0 {
		val := ex.axes[ai].vals[idx[ai]]
		c, _ := canonScheme(val.Str)
		return c, val.Pos, nil
	}
	for i := range ex.prog.Sets {
		set := &ex.prog.Sets[i]
		if kn := lookupKnob(set.Knob); kn == nil || kn.name != "scheme" {
			continue
		}
		c, _ := canonScheme(set.nodes[ex.profile].eval(ex, idx).Str)
		return c, ex.profileExpr(set).Pos, nil
	}
	return "", Pos{}, &Error{File: ex.prog.File, Pos: Pos{Line: 1, Col: 1}, Msg: "script never sets the scheme (SWEEP scheme=... or SET scheme=...)"}
}

// buildTable evaluates one table's checked nodes over the finished
// results, one row per value of its x axis.
func (ex *executor) buildTable(decl *TableDecl) *Table {
	tb := &Table{ID: decl.ID, Title: decl.Title, XLabel: decl.XLabel, YLabel: decl.YLabel}
	if tb.XLabel == "" {
		tb.XLabel = ex.axes[decl.xAxis].decl.Name
	}
	if tb.YLabel == "" {
		tb.YLabel = "bytes"
	}
	for i := range decl.Cols {
		tb.Columns = append(tb.Columns, decl.Cols[i].Label)
	}
	idx := make([]int, len(ex.axes))
	for idx[decl.xAxis] = range ex.axes[decl.xAxis].vals {
		cells := make([]float64, len(decl.Cols))
		for ci := range decl.Cols {
			cells[ci] = decl.Cols[ci].node.eval(ex, idx).Num
		}
		tb.AddRow(decl.x.eval(ex, idx).Num, cells...)
	}
	for ni := range decl.Notes {
		var b strings.Builder
		for _, part := range decl.Notes[ni].Parts {
			if part.node == nil {
				b.WriteString(part.Text)
			} else if v := part.node.eval(ex, nil); v.IsStr {
				b.WriteString(v.Str)
			} else {
				b.WriteString(formatFloat(v.Num))
			}
		}
		tb.Note("%s", b.String())
	}
	return tb
}

// point is the finished point at linear index li, read with arg.
func (ex *executor) point(li int, arg string) point {
	if ex.mode == ModeAttrQuery {
		return point{attr: &ex.attrs[li], arg: arg}
	}
	return point{cfg: &ex.cfgs[li], res: ex.results[li], arg: arg}
}

// Emit writes every table through its declared sinks: csv paths are
// joined to root, summaries go to stdout. Execute returns tables in
// declaration order, so sinks resolve positionally.
func Emit(prog *Program, tables []*Table, root string, stdout io.Writer) error {
	if want := max(len(prog.Tables), 1); len(tables) != want {
		return fmt.Errorf("airql: %d tables for %d sink sets", len(tables), want)
	}
	for i, tb := range tables {
		sinks := prog.LooseSinks
		if len(prog.Tables) > 0 {
			sinks = prog.Tables[i].Sinks
		}
		for _, sink := range sinks {
			switch sink.Name {
			case "summary":
				if err := tb.WriteText(stdout); err != nil {
					return err
				}
			default: // csv
				path := filepath.Join(root, filepath.FromSlash(sink.Arg))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					return err
				}
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := tb.WriteCSV(f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
