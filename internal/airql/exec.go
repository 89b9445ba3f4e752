package airql

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/airindex/airindex/internal/core"
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

	axes   []axisRT
	stride []int // linear-index stride per axis (axis 0 is slowest)
	total  int

	cfgs    []core.Config
	results []*core.Result
	attrs   []attrRow // attrquery mode: one row per records value
	mode    string
}

// Execute compiles nothing new — the program must have passed Validate —
// and runs every sweep point, returning the declared tables in order.
// All points run through the shared concurrent scheduler (runPoints)
// under the (Seed, Shards) determinism contract: results depend on each
// point's config only, never on scheduling.
func Execute(prog *Program, opt Options) ([]*Table, error) {
	if errs := Validate(prog); len(errs) > 0 {
		return nil, errs
	}
	mode := ModeSim
	for _, r := range prog.Runs {
		switch r.Key {
		case "seed":
			if opt.Seed == 0 {
				opt.Seed = int64(r.Val.Num)
			}
		case "shards":
			if opt.Shards == 0 {
				opt.Shards = int(r.Val.Num)
			}
		case "mode":
			mode = r.Val.Str
		}
	}

	ex := &executor{prog: prog, opt: opt, mode: mode}
	for i := range prog.Axes {
		decl := &prog.Axes[i]
		ex.axes = append(ex.axes, axisRT{
			decl: decl,
			vals: axisValues(decl, opt.Fast),
			kn:   lookupKnob(decl.Name),
		})
	}
	ex.stride = make([]int, len(ex.axes))
	ex.total = 1
	for i := len(ex.axes) - 1; i >= 0; i-- {
		ex.stride[i] = ex.total
		ex.total *= len(ex.axes[i].vals)
	}

	if mode == ModeAttrQuery {
		if err := ex.runAttrQuery(); err != nil {
			return nil, err
		}
	} else {
		cfgs := make([]core.Config, ex.total)
		for li := 0; li < ex.total; li++ {
			cfg, err := ex.pointConfig(ex.indexOf(li))
			if err != nil {
				return nil, err
			}
			cfgs[li] = cfg
		}
		ex.cfgs = cfgs
		results, err := runPoints(opt, cfgs)
		if err != nil {
			return nil, err
		}
		ex.results = results
	}

	decls := prog.Tables
	if len(decls) == 0 {
		t, err := implicitTable(prog, opt.Fast)
		if err != nil {
			return nil, err
		}
		decls = []*TableDecl{t}
	}
	tables := make([]*Table, 0, len(decls))
	for _, decl := range decls {
		tb, err := ex.buildTable(decl)
		if err != nil {
			return nil, err
		}
		tables = append(tables, tb)
	}
	return tables, nil
}

// indexOf decodes a linear point index into per-axis indices.
func (ex *executor) indexOf(li int) []int {
	idx := make([]int, len(ex.axes))
	for i := range ex.axes {
		idx[i] = li / ex.stride[i] % len(ex.axes[i].vals)
	}
	return idx
}

func (ex *executor) axisIndex(name string) int {
	for i := range ex.axes {
		if ex.axes[i].decl.Name == name {
			return i
		}
	}
	return -1
}

// profileExpr picks a SET's expression under the active profile.
func (ex *executor) profileExpr(set *SetDecl) *Expr {
	if ex.opt.Fast && set.FastExpr != nil {
		return set.FastExpr
	}
	return set.Expr
}

// pointConfig assembles one sweep point's full configuration: the
// constructor knobs (scheme, records) feed BaseConfig, which applies the
// session settings, then axis values and SET stages apply in declaration
// order, then the fault.* staging collapses into cfg.Faults wholesale.
func (ex *executor) pointConfig(idx []int) (core.Config, error) {
	scheme, err := ex.schemeFor(idx)
	if err != nil {
		return core.Config{}, err
	}
	records, err := ex.recordsFor(idx)
	if err != nil {
		return core.Config{}, err
	}
	cfg := ex.opt.BaseConfig(scheme, records)
	var pf pointFaults
	env := &evalEnv{ex: ex, idx: idx}
	for i := range ex.axes {
		ax := &ex.axes[i]
		if ax.kn == nil {
			continue
		}
		if err := applyKnob(&cfg, &pf, ax.kn, ax.vals[idx[i]]); err != nil {
			return core.Config{}, err
		}
	}
	for i := range ex.prog.Sets {
		set := &ex.prog.Sets[i]
		kn := lookupKnob(set.Knob)
		val, verr := ex.setValue(set, env)
		if verr != nil {
			return core.Config{}, verr
		}
		if err := applyKnob(&cfg, &pf, kn, val); err != nil {
			return core.Config{}, err
		}
	}
	pf.apply(&cfg)
	return cfg, nil
}

// setValue evaluates a SET's right-hand side for the current point. A
// vocabulary knob's value is a bare name (SET alloc=replicated), a
// quoted string, or a reference to a string axis — never a computed
// expression, so those short-circuit the arithmetic evaluator.
func (ex *executor) setValue(set *SetDecl, env *evalEnv) (Scalar, *Error) {
	e := ex.profileExpr(set)
	kn := lookupKnob(set.Knob)
	if kn != nil && kn.isString {
		switch e.Kind {
		case ExprStr:
			return Scalar{Pos: e.Pos, IsStr: true, Str: e.Str}, nil
		case ExprVar:
			if ai := ex.axisIndex(e.Name); ai >= 0 {
				return ex.axes[ai].vals[env.idx[ai]], nil
			}
			return Scalar{Pos: e.Pos, IsStr: true, Str: e.Name}, nil
		default:
			return Scalar{}, &Error{File: ex.prog.File, Pos: e.Pos,
				Msg: fmt.Sprintf("knob %s takes a name, not an expression", kn.name)}
		}
	}
	return env.eval(e)
}

// applyKnob lands one value, re-checking ranges for computed expressions
// the validator could not fold.
func applyKnob(cfg *core.Config, pf *pointFaults, kn *knob, v Scalar) error {
	if kn == nil {
		return nil
	}
	if kn.isString && !v.IsStr {
		// A numeric axis value routed into a vocabulary knob; the
		// validator rejects this, so reaching here is an executor bug.
		return &Error{Pos: v.Pos, Msg: fmt.Sprintf("knob %s takes a name", kn.name)}
	}
	if msg := checkKnobScalar(kn, v); msg != "" {
		return &Error{Pos: v.Pos, Msg: msg + " (computed value)"}
	}
	kn.apply(cfg, pf, v)
	return nil
}

// schemeFor resolves the point's scheme: the scheme axis value, a SET
// scheme expression, or nothing — which the validator already rejected.
func (ex *executor) schemeFor(idx []int) (string, error) {
	if ai := ex.axisIndex("scheme"); ai >= 0 {
		c, ok := canonScheme(ex.axes[ai].vals[idx[ai]].Str)
		if !ok {
			return "", &Error{Pos: ex.axes[ai].vals[idx[ai]].Pos, Msg: "unknown scheme"}
		}
		return c, nil
	}
	for i := range ex.prog.Sets {
		set := &ex.prog.Sets[i]
		if kn := lookupKnob(set.Knob); kn == nil || kn.name != "scheme" {
			continue
		}
		e := ex.profileExpr(set)
		name := ""
		switch e.Kind {
		case ExprStr:
			name = e.Str
		case ExprVar:
			if ai := ex.axisIndex(e.Name); ai >= 0 {
				name = ex.axes[ai].vals[idx[ai]].Str
			} else {
				name = e.Name
			}
		default:
			return "", &Error{Pos: e.Pos, Msg: "scheme takes a name, not an expression"}
		}
		c, ok := canonScheme(name)
		if !ok {
			return "", &Error{Pos: e.Pos, Msg: fmt.Sprintf("unknown scheme %q (schemes: %s)", name, schemeVocab())}
		}
		return c, nil
	}
	return "", &Error{Pos: Pos{Line: 1, Col: 1}, Msg: "script never sets the scheme"}
}

// recordsFor resolves the point's database size; scripts that never set
// records get the comparison workload's default.
func (ex *executor) recordsFor(idx []int) (int, error) {
	if ai := ex.axisIndex("records"); ai >= 0 {
		return int(ex.axes[ai].vals[idx[ai]].Num), nil
	}
	for i := range ex.prog.Sets {
		set := &ex.prog.Sets[i]
		if kn := lookupKnob(set.Knob); kn == nil || kn.name != "records" {
			continue
		}
		env := &evalEnv{ex: ex, idx: idx}
		val, err := env.eval(ex.profileExpr(set))
		if err != nil {
			return 0, err
		}
		return int(val.Num), nil
	}
	return ex.opt.ComparisonRecords(), nil
}

// buildTable evaluates one table declaration over the finished results.
func (ex *executor) buildTable(decl *TableDecl) (*Table, error) {
	refs := exprAxisRefs(ex.prog, decl.XExpr)
	if len(refs) != 1 {
		return nil, &Error{File: ex.prog.File, Pos: decl.Pos, Msg: "table's x expression must reference exactly one axis"}
	}
	xi := ex.axisIndex(refs[0])
	xlabel := decl.XLabel
	if xlabel == "" {
		xlabel = refs[0]
	}
	ylabel := decl.YLabel
	if ylabel == "" {
		ylabel = "bytes"
	}
	tb := &Table{ID: decl.ID, Title: decl.Title, XLabel: xlabel, YLabel: ylabel}
	for i := range decl.Cols {
		tb.Columns = append(tb.Columns, decl.Cols[i].Label)
	}
	for ri := range ex.axes[xi].vals {
		env := ex.rowEnv(xi, ri)
		x, err := env.eval(decl.XExpr)
		if err != nil {
			return nil, err
		}
		cells := make([]float64, 0, len(decl.Cols))
		for ci := range decl.Cols {
			v, err := env.eval(decl.Cols[ci].Expr)
			if err != nil {
				return nil, err
			}
			cells = append(cells, v.Num)
		}
		tb.AddRow(x.Num, cells...)
	}
	for ni := range decl.Notes {
		line, err := ex.renderNote(&decl.Notes[ni])
		if err != nil {
			return nil, err
		}
		tb.Note("%s", line)
	}
	return tb, nil
}

// rowEnv binds the x axis to a row; single-valued axes bind implicitly
// and selectors pin the rest per metric.
func (ex *executor) rowEnv(xi, ri int) *evalEnv {
	idx := make([]int, len(ex.axes))
	for i := range idx {
		idx[i] = -1
		if len(ex.axes[i].vals) == 1 {
			idx[i] = 0
		}
	}
	idx[xi] = ri
	env := &evalEnv{ex: ex, idx: idx, metrics: true}
	if ex.mode == ModeAttrQuery {
		env.row = &ex.attrs[ri]
	}
	return env
}

// renderNote evaluates a NOTE's interpolations against the constants of
// the active profile.
func (ex *executor) renderNote(n *NoteDecl) (string, error) {
	var b strings.Builder
	for _, part := range n.Parts {
		if part.Expr == nil {
			b.WriteString(part.Text)
			continue
		}
		env := &evalEnv{ex: ex, note: true}
		v, err := env.eval(part.Expr)
		if err != nil {
			return "", err
		}
		if v.IsStr {
			b.WriteString(v.Str)
		} else {
			b.WriteString(formatFloat(v.Num))
		}
	}
	return b.String(), nil
}

// evalEnv is one expression evaluation context: which axes are bound,
// whether metrics resolve, and the attrquery row if any.
type evalEnv struct {
	ex      *executor
	idx     []int // per-axis binding, -1 = unbound; nil = no point context
	row     *attrRow
	metrics bool
	note    bool
}

func (env *evalEnv) errf(pos Pos, format string, args ...any) *Error {
	return &Error{File: env.ex.prog.File, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// eval computes an expression; the validator has already type-checked it,
// so errors here are profile-dependent (a selector value absent from the
// fast profile) or executor bugs.
func (env *evalEnv) eval(e *Expr) (Scalar, *Error) {
	switch e.Kind {
	case ExprNum:
		return Scalar{Pos: e.Pos, Num: e.Num, Bytes: e.Bytes}, nil
	case ExprStr:
		return Scalar{Pos: e.Pos, IsStr: true, Str: e.Str}, nil
	case ExprVar:
		return env.evalVar(e)
	case ExprCall:
		return env.evalCall(e)
	case ExprOp:
		x, err := env.eval(e.X)
		if err != nil {
			return Scalar{}, err
		}
		var y Scalar
		if e.Y != nil {
			y, err = env.eval(e.Y)
			if err != nil {
				return Scalar{}, err
			}
		}
		if x.IsStr || y.IsStr {
			return Scalar{}, env.errf(e.Pos, "arithmetic over names is not defined")
		}
		out := Scalar{Pos: e.Pos}
		switch e.Op {
		case OpAdd:
			out.Num = x.Num + y.Num
		case OpSub:
			out.Num = x.Num - y.Num
		case OpMul:
			out.Num = x.Num * y.Num
		case OpDiv:
			out.Num = x.Num / y.Num
		case OpNeg:
			out.Num = -x.Num
		default:
			return Scalar{}, env.errf(e.Pos, "unknown operator")
		}
		return out, nil
	default:
		return Scalar{}, env.errf(e.Pos, "unknown expression kind")
	}
}

func (env *evalEnv) evalVar(e *Expr) (Scalar, *Error) {
	if ai := env.ex.axisIndex(e.Name); ai >= 0 {
		if env.note {
			vals := env.ex.axes[ai].vals
			if len(vals) != 1 {
				return Scalar{}, env.errf(e.Pos, "axis %s is not single-valued", e.Name)
			}
			return vals[0], nil
		}
		if env.idx == nil || env.idx[ai] < 0 {
			return Scalar{}, env.errf(e.Pos, "axis %s is not pinned here", e.Name)
		}
		return env.ex.axes[ai].vals[env.idx[ai]], nil
	}
	if env.note {
		return env.noteKnob(e)
	}
	if inList(e.Name, bareMetrics) {
		return env.metric(e, "")
	}
	return Scalar{}, env.errf(e.Pos, "unknown name %q", e.Name)
}

// noteKnob resolves a constant SET knob for NOTE interpolation.
func (env *evalEnv) noteKnob(e *Expr) (Scalar, *Error) {
	want := knobNameFor(e.Name)
	for i := range env.ex.prog.Sets {
		set := &env.ex.prog.Sets[i]
		if kn := lookupKnob(set.Knob); kn == nil || kn.name != want {
			continue
		}
		constEnv := &evalEnv{ex: env.ex}
		return constEnv.eval(env.ex.profileExpr(set))
	}
	if want == "records" {
		// The default workload size is interpolatable even when implicit.
		return Scalar{Pos: e.Pos, Num: float64(env.ex.opt.ComparisonRecords())}, nil
	}
	return Scalar{}, env.errf(e.Pos, "unknown name %q in NOTE interpolation", e.Name)
}

func (env *evalEnv) evalCall(e *Expr) (Scalar, *Error) {
	switch e.Name {
	case "count":
		ai := env.ex.axisIndex(e.Args[0].Name)
		if ai < 0 {
			return Scalar{}, env.errf(e.Pos, "count takes an axis name")
		}
		return Scalar{Pos: e.Pos, Num: float64(len(env.ex.axes[ai].vals))}, nil
	case "trunc":
		v, err := env.eval(e.Args[0])
		if err != nil {
			return Scalar{}, err
		}
		v.Num = math.Trunc(v.Num)
		return v, nil
	case "min", "max":
		var out Scalar
		for i, a := range e.Args {
			v, err := env.eval(a)
			if err != nil {
				return Scalar{}, err
			}
			if i == 0 {
				out = v
				continue
			}
			if e.Name == "min" {
				out.Num = math.Min(out.Num, v.Num)
			} else {
				out.Num = math.Max(out.Num, v.Num)
			}
		}
		out.Pos = e.Pos
		return out, nil
	default:
		arg := ""
		if len(e.Args) == 1 && e.Args[0].Kind == ExprVar {
			arg = e.Args[0].Name
		}
		return env.metric(e, arg)
	}
}

// metric resolves a per-point metric: pin remaining axes from the
// selector, locate the point, and read the requested statistic.
func (env *evalEnv) metric(e *Expr, arg string) (Scalar, *Error) {
	if !env.metrics {
		return Scalar{}, env.errf(e.Pos, "metric %s outside a COL expression", e.Name)
	}
	if e.Name == "attr" {
		if env.row == nil {
			return Scalar{}, env.errf(e.Pos, "attr(...) outside attrquery mode")
		}
		switch arg {
		case "flat_access":
			return Scalar{Pos: e.Pos, Num: env.row.flatAccess}, nil
		case "flat_tuning":
			return Scalar{Pos: e.Pos, Num: env.row.flatTuning}, nil
		case "sig_access":
			return Scalar{Pos: e.Pos, Num: env.row.sigAccess}, nil
		case "sig_tuning":
			return Scalar{Pos: e.Pos, Num: env.row.sigTuning}, nil
		default:
			return Scalar{}, env.errf(e.Pos, "unknown attr metric %q", arg)
		}
	}
	idx := make([]int, len(env.idx))
	copy(idx, env.idx)
	for _, s := range e.Sel {
		ai := env.ex.axisIndex(s.Key)
		if ai < 0 {
			return Scalar{}, env.errf(s.Pos, "selector key %q is not an axis", s.Key)
		}
		vi := -1
		for j, val := range env.ex.axes[ai].vals {
			if scalarsEqual(val, s.Val) {
				vi = j
				break
			}
		}
		if vi < 0 {
			return Scalar{}, env.errf(s.Val.Pos, "axis %s has no value %s under this profile", s.Key, s.Val)
		}
		idx[ai] = vi
	}
	li := 0
	for i := range idx {
		if idx[i] < 0 {
			return Scalar{}, env.errf(e.Pos, "metric %s does not pin axis %s", e.Name, env.ex.axes[i].decl.Name)
		}
		li += idx[i] * env.ex.stride[i]
	}
	res := env.ex.results[li]
	cfg := env.ex.cfgs[li]
	v, err := simMetric(e.Name, arg, cfg, res)
	if err != nil {
		return Scalar{}, env.errf(e.Pos, "%s", err.Error())
	}
	return Scalar{Pos: e.Pos, Num: v}, nil
}

// simMetric reads one statistic off a finished run. The vocabulary here
// and in the validator's checkMetric must stay in lockstep.
func simMetric(name, arg string, cfg core.Config, res *core.Result) (float64, error) {
	switch name {
	case "mean":
		switch arg {
		case "access":
			return res.Access.Mean(), nil
		case "tuning":
			return res.Tuning.Mean(), nil
		case "probes":
			return res.Probes.Mean(), nil
		case "energy":
			return res.Energy.Mean(), nil
		}
	case "p95":
		switch arg {
		case "access":
			return res.AccessP95, nil
		case "tuning":
			return res.TuningP95, nil
		}
	case "p99":
		switch arg {
		case "access":
			return res.AccessP99, nil
		case "tuning":
			return res.TuningP99, nil
		}
	case "analytic":
		a, t := Analytic(cfg, res)
		if arg == "access" {
			return a, nil
		}
		return t, nil
	case "param":
		return res.Params[arg], nil
	case "requests":
		return float64(res.Requests), nil
	case "restarts":
		return float64(res.Restarts), nil
	case "wasted":
		return float64(res.WastedBytes), nil
	case "cycle_bytes":
		return float64(res.CycleBytes), nil
	case "switches":
		return float64(res.Switches), nil
	case "unrecovered":
		return float64(res.Unrecovered), nil
	}
	return 0, fmt.Errorf("unknown metric %s(%s)", name, arg)
}

// scriptName is a script's display name: the file base without .airql.
func scriptName(file string) string {
	id := strings.TrimSuffix(filepath.Base(file), ".airql")
	if id == "" || id == "." {
		return "sweep"
	}
	return id
}

// exprAxisRefs lists the axes an expression references outside selectors,
// in first-use order.
func exprAxisRefs(prog *Program, e *Expr) []string {
	if e == nil {
		return nil
	}
	var refs []string
	switch e.Kind {
	case ExprVar:
		for i := range prog.Axes {
			if prog.Axes[i].Name == e.Name {
				refs = append(refs, e.Name)
			}
		}
	case ExprOp:
		refs = mergeRefs(refs, exprAxisRefs(prog, e.X))
		refs = mergeRefs(refs, exprAxisRefs(prog, e.Y))
	case ExprCall:
		for _, a := range e.Args {
			refs = mergeRefs(refs, exprAxisRefs(prog, a))
		}
	case ExprNum, ExprStr:
	default:
	}
	return refs
}

// implicitTable synthesizes the default table for scripts that EMIT
// without declaring one (the ISSUE's one-liner form): x is the first
// numeric axis, and every combination of the remaining multi-valued axes
// becomes an access/tuning column pair.
func implicitTable(prog *Program, fast bool) (*TableDecl, *Error) {
	xi := -1
	for i := range prog.Axes {
		if !axisIsString(&prog.Axes[i]) && len(prog.Axes[i].Values) > 0 {
			xi = i
			break
		}
	}
	if xi < 0 {
		return nil, &Error{File: prog.File, Pos: Pos{Line: 1, Col: 1},
			Msg: "EMIT without TABLE needs at least one numeric axis for the x column"}
	}
	xName := prog.Axes[xi].Name
	id := scriptName(prog.File)
	t := &TableDecl{
		ID:     id,
		Pos:    Pos{Line: 1, Col: 1},
		Title:  "ad-hoc sweep",
		XLabel: xName,
		YLabel: "bytes",
		XExpr:  &Expr{Kind: ExprVar, Pos: Pos{Line: 1, Col: 1}, Name: xName},
		Sinks:  prog.LooseSinks,
	}
	// Cross-product of the other multi-valued axes, in declaration order.
	combos := [][]SelItem{nil}
	for i := range prog.Axes {
		ax := &prog.Axes[i]
		vals := axisValues(ax, fast)
		if i == xi || len(vals) <= 1 {
			continue
		}
		var next [][]SelItem
		for _, combo := range combos {
			for _, val := range vals {
				item := SelItem{Key: ax.Name, Pos: ax.Pos, Val: val}
				next = append(next, append(append([]SelItem{}, combo...), item))
			}
		}
		combos = next
	}
	for _, combo := range combos {
		prefix := ""
		for _, item := range combo {
			prefix += item.Key + "=" + item.Val.String() + " "
		}
		for _, metric := range []string{"access", "tuning"} {
			t.Cols = append(t.Cols, ColDecl{
				Label: prefix + metric,
				Pos:   t.Pos,
				Expr: &Expr{
					Kind: ExprCall, Pos: t.Pos, Name: "mean",
					Args: []*Expr{{Kind: ExprVar, Pos: t.Pos, Name: metric}},
					Sel:  combo,
				},
			})
		}
	}
	return t, nil
}

// Emit writes every table through its declared sinks: csv paths are
// joined to root, summaries go to stdout. Execute returns tables in
// declaration order, so sinks resolve positionally.
func Emit(prog *Program, tables []*Table, root string, stdout io.Writer) error {
	sinkSets := make([][]SinkDecl, 0, len(tables))
	if len(prog.Tables) == 0 {
		sinkSets = append(sinkSets, prog.LooseSinks)
	} else {
		for _, decl := range prog.Tables {
			sinkSets = append(sinkSets, decl.Sinks)
		}
	}
	if len(sinkSets) != len(tables) {
		return fmt.Errorf("airql: %d tables for %d sink sets", len(tables), len(sinkSets))
	}
	for i, tb := range tables {
		for _, sink := range sinkSets[i] {
			switch sink.Name {
			case "csv":
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
			case "summary":
				if err := tb.WriteText(stdout); err != nil {
					return err
				}
			default:
				return fmt.Errorf("airql: unknown sink %q", sink.Name)
			}
		}
	}
	return nil
}
