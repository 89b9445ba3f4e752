package airql

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"

	"github.com/airindex/airindex/internal/core"
)

// Run modes accepted by RUN mode=...
const (
	// ModeSim runs every point through the simulator (the default).
	ModeSim = "sim"
	// ModeAttrQuery runs the attribute-equality query harness instead:
	// flat scan vs signature filtering over the same dataset, outside
	// the simulator's request model (the ext-multiattr family).
	ModeAttrQuery = "attrquery"
)

// exprFuncs are the arithmetic helpers. Like metric names, they are
// reserved: axes cannot shadow them.
var exprFuncs = []string{"min", "max", "trunc", "count"}

func reservedName(name string) bool {
	return name == "fast" || lookupMetric(name) != nil || slices.Contains(exprFuncs, name)
}

// maxPoints bounds a sweep's points per profile, and so the work of
// checking each one at compile time.
const maxPoints = 100000

// validator accumulates semantic diagnostics over a parsed program.
type validator struct {
	prog *Program
	errs ErrorList

	mode string

	// slab holds the nodes compile hands out; xRefs collects the axes an
	// x expression reads.
	slab  []node
	xRefs []int
}

func (v *validator) errorf(pos Pos, format string, args ...any) {
	v.errs = append(v.errs, &Error{File: v.prog.File, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Validate type-checks a parsed program against the real configuration
// surface and compiles each of its expressions into the checked node
// Execute evaluates. Once the RUN, axis and SET checks are clean, it
// checks every point the program will run with core.Config.Validate
// (checkPoints). It returns every diagnostic it can find, each once.
func Validate(prog *Program) ErrorList {
	v := &validator{prog: prog, mode: ModeSim}
	v.checkRuns()
	v.checkAxes()
	v.checkSets()
	v.checkFaultKnobs()
	v.checkAttrQuery()
	if len(v.errs) == 0 {
		v.checkPoints()
	}
	v.checkTables()
	if prog.checked = len(v.errs) == 0; !prog.checked {
		return v.errs.unique()
	}
	return nil
}

// checkPoints builds every point of both profiles as Execute would with
// zero Options, and reports each point core.Config.Validate rejects at
// the position pointConfig blames.
func (v *validator) checkPoints() {
	for _, fast := range []bool{false, true} {
		v.errs = append(v.errs, newExecutor(v.prog, Options{Fast: fast}).pointConfigs(func(int, *core.Config) {})...)
	}
}

// axisIndex resolves an axis name to its first declaration, or -1.
func (prog *Program) axisIndex(name string) int {
	for i := range prog.Axes {
		if prog.Axes[i].Name == name {
			return i
		}
	}
	return -1
}

// axisValues returns an axis's value list under a profile.
func axisValues(ax *AxisDecl, fast bool) []Scalar {
	if fast && ax.HasFast {
		return ax.Fast
	}
	return ax.Values
}

// axisIsString reports whether an axis holds string values (under the
// full profile; checkAxes rejects profiles of differing kinds).
func axisIsString(ax *AxisDecl) bool {
	return len(ax.Values) > 0 && ax.Values[0].IsStr
}

func (v *validator) checkRuns() {
	seen := map[string]bool{}
	for _, r := range v.prog.Runs {
		if seen[r.Key] {
			v.errorf(r.Pos, "duplicate RUN option %s", r.Key)
			continue
		}
		seen[r.Key] = true
		switch r.Key {
		case "seed":
			if r.Val.IsStr || r.Val.Num != math.Trunc(r.Val.Num) {
				v.errorf(r.Val.Pos, "RUN seed takes an integer")
			}
		case "shards":
			if r.Val.IsStr || r.Val.Num != math.Trunc(r.Val.Num) || r.Val.Num < 0 {
				v.errorf(r.Val.Pos, "RUN shards takes a non-negative integer")
			}
		case "mode":
			if !r.Val.IsStr || (r.Val.Str != ModeSim && r.Val.Str != ModeAttrQuery) {
				v.errorf(r.Val.Pos, "RUN mode must be %s or %s, not %s", ModeSim, ModeAttrQuery, r.Val)
			} else {
				v.mode = r.Val.Str
			}
		default:
			v.errorf(r.Pos, "unknown RUN option %q (want seed, shards or mode)", r.Key)
		}
	}
}

func (v *validator) checkAxes() {
	for i := range v.prog.Axes {
		ax := &v.prog.Axes[i]
		if v.prog.axisIndex(ax.Name) != i {
			v.errorf(ax.Pos, "duplicate axis %s", ax.Name)
			continue
		}
		if reservedName(ax.Name) {
			v.errorf(ax.Pos, "axis name %q is reserved (metric and function names cannot be axes)", ax.Name)
			continue
		}
		kn := lookupKnob(ax.Name)
		profiles := []bool{false}
		if ax.HasFast {
			profiles = append(profiles, true)
		}
		for _, fastProfile := range profiles {
			vals := axisValues(ax, fastProfile)
			if len(vals) == 0 {
				continue
			}
			isStr := vals[0].IsStr
			for _, val := range vals {
				if val.IsStr != isStr {
					v.errorf(val.Pos, "axis %s mixes names and numbers", ax.Name)
				}
				if kn != nil {
					if msg := checkKnobScalar(kn, val); msg != "" {
						v.errorf(val.Pos, "%s", msg)
					}
				}
			}
			if isStr != axisIsString(ax) {
				v.errorf(ax.Pos, "axis %s: fast(...) values must match the full profile's kind (names vs numbers)", ax.Name)
			}
		}
		if kn == nil && axisIsString(ax) {
			v.errorf(ax.Pos, "axis %s holds names but is not a knob; string axes must be knobs (e.g. scheme)", ax.Name)
		}
	}
	for _, fast := range []bool{false, true} {
		points := 1
		for i := range v.prog.Axes {
			if points *= len(axisValues(&v.prog.Axes[i], fast)); points > maxPoints {
				v.errorf(v.prog.Axes[i].Pos, "the sweep expands to more than %d points", maxPoints)
				return
			}
		}
	}
}

// checkAttrQuery checks the attrquery mode's fixed shape. (That every
// point of a simulator script has a scheme is pointConfig's to check.)
func (v *validator) checkAttrQuery() {
	if v.mode != ModeAttrQuery {
		return
	}
	// The attrquery harness hard-codes its flat-vs-signature pair.
	if ai := v.prog.axisIndex("scheme"); ai >= 0 {
		v.errorf(v.prog.Axes[ai].Pos, "attrquery mode runs flat and signature; the scheme cannot be swept")
	}
	if len(v.prog.Axes) != 1 || v.prog.Axes[0].Name != "records" {
		pos := Pos{Line: 1, Col: 1}
		if len(v.prog.Axes) > 0 {
			pos = v.prog.Axes[0].Pos
		}
		v.errorf(pos, "attrquery mode needs exactly one axis, records")
	}
	if len(v.prog.Sets) > 0 {
		v.errorf(v.prog.Sets[0].Pos, "attrquery mode takes no SET stages")
	}
}

func (v *validator) checkSets() {
	for i := range v.prog.Sets {
		set := &v.prog.Sets[i]
		kn := lookupKnob(set.Knob)
		if kn == nil {
			if v.prog.axisIndex(set.Knob) >= 0 {
				v.errorf(set.Pos, "%s is an axis; axes are swept by SWEEP, not assigned by SET", set.Knob)
			} else {
				v.errorf(set.Pos, "unknown knob %q (knobs: %s)", set.Knob, strings.Join(KnobNames(), ", "))
			}
			continue
		}
		set.nodes[0] = v.compileSet(kn, set.Expr)
		set.nodes[1] = set.nodes[0]
		if set.FastExpr != nil {
			set.nodes[1] = v.compileSet(kn, set.FastExpr)
		}
	}
}

// compileSet checks a SET's value against its knob. A vocabulary knob
// takes a name, bare or quoted, or a string axis; any other knob takes
// an expression, whose value is checked here when it is a constant.
func (v *validator) compileSet(kn *knob, e *Expr) *node {
	if !kn.isString {
		n := v.compile(e, scope{knob: kn, x: -1})
		// compile reported any unit mismatch at the literal itself, so
		// the folded value is checked without its unit.
		if n.kind == nodeConst && !n.str {
			if msg := checkKnobScalar(kn, Scalar{Num: n.val[0].Num}); msg != "" {
				v.errorf(e.Pos, "%s", msg)
			}
		}
		return n
	}
	name := e.Str
	switch e.Kind {
	case ExprStr:
	case ExprVar:
		if ai := v.prog.axisIndex(e.Name); ai >= 0 {
			n := v.node()
			n.kind, n.axis, n.str = nodeAxis, ai, axisIsString(&v.prog.Axes[ai])
			if !n.str {
				v.errorf(e.Pos, "knob %s takes a name but axis %s holds numbers", kn.name, e.Name)
			}
			return n
		}
		name = e.Name
	default:
		v.errorf(e.Pos, "knob %s takes a name (%s), not an expression", kn.name, kn.vocabDoc)
		return v.node()
	}
	if _, ok := kn.vocab(name); !ok {
		v.errorf(e.Pos, "knob %s: unknown value %q (%s)", kn.name, name, kn.vocabDoc)
	}
	return v.constant(Scalar{IsStr: true, Str: name})
}

// checkFaultKnobs rejects fault.retries and fault.recovery when nothing
// turns the fault layer on. Only a fault.model other than none, or a
// fault.rate with no model (the drop model), builds a fault config, so
// either knob on its own would silently do nothing.
func (v *validator) checkFaultKnobs() {
	type use struct {
		knob string
		pos  Pos
		none bool // every value names the none model
	}
	var uses []use
	for i := range v.prog.Axes {
		ax := &v.prog.Axes[i]
		none := true
		for _, val := range append(append([]Scalar{}, ax.Values...), ax.Fast...) {
			none = none && val.Str == "none"
		}
		uses = append(uses, use{knobNameFor(ax.Name), ax.Pos, none})
	}
	for i := range v.prog.Sets {
		set := &v.prog.Sets[i]
		none := true
		for _, e := range []*Expr{set.Expr, set.FastExpr} {
			// A computed value or an axis reference may name any model.
			none = none && (e == nil || e.Kind == ExprStr && e.Str == "none" || e.Kind == ExprVar && e.Name == "none")
		}
		uses = append(uses, use{knobNameFor(set.Knob), set.Pos, none})
	}
	var modelSet, modelOn, rateSet bool
	for _, u := range uses {
		modelSet = modelSet || u.knob == "fault.model"
		modelOn = modelOn || u.knob == "fault.model" && !u.none
		rateSet = rateSet || u.knob == "fault.rate"
	}
	if modelOn || rateSet && !modelSet {
		return
	}
	for _, u := range uses {
		if u.knob == "fault.retries" || u.knob == "fault.recovery" {
			v.errorf(u.pos, "knob %s needs fault.model (other than none) or fault.rate; without either the fault layer stays off and the knob does nothing", u.knob)
		}
	}
}

// scope says where an expression appears, and so what it may read: a
// SET's (knob set), an x expression's, a COL's (col set) or a NOTE's.
type scope struct {
	knob *knob // a SET's knob, for unit errors
	col  bool  // a COL expression: metrics resolve
	note bool  // a NOTE interpolation: constants only
	x    int   // the table's x axis in a COL expression, else -1
}

func (sc scope) String() string {
	switch {
	case sc.note:
		return "a NOTE interpolation"
	case sc.knob != nil:
		return "the expression for knob " + sc.knob.name
	default:
		return "a table expression"
	}
}

// node returns a zeroed node, allocating them a chunk at a time.
func (v *validator) node() *node {
	if len(v.slab) == 0 {
		v.slab = make([]node, 16)
	}
	n := &v.slab[0]
	v.slab = v.slab[1:]
	return n
}

// constant makes a node of one value under both profiles.
func (v *validator) constant(val Scalar) *node {
	n := v.node()
	n.val, n.str = [2]Scalar{val, val}, val.IsStr
	return n
}

// compile checks e where sc puts it and returns its node, folded to a
// constant where every operand is one. A node that fails a check is still
// returned, so that one bad operand does not hide the checks of the next.
func (v *validator) compile(e *Expr, sc scope) *node {
	switch e.Kind {
	case ExprNum:
		if e.Bytes && sc.knob != nil && !sc.knob.isBytes {
			v.errorf(e.Pos, "unit mismatch: knob %s is dimensionless but the value has a byte unit", sc.knob.name)
		}
		if e.Bytes && sc.knob == nil {
			v.errorf(e.Pos, "byte units only apply to byte-quantity knobs, not to %s", sc)
		}
		return v.constant(Scalar{Num: e.Num, Bytes: e.Bytes})
	case ExprStr:
		v.errorf(e.Pos, "a string cannot appear in %s", sc)
		return v.constant(Scalar{IsStr: true, Str: e.Str})
	case ExprVar:
		if def := lookupMetric(e.Name); def != nil && def.bare() {
			return v.compileMetric(e, sc, def)
		}
		return v.compileName(e, sc)
	case ExprCall:
		if def := lookupMetric(e.Name); def != nil {
			return v.compileMetric(e, sc, def)
		}
		return v.compileFunc(e, sc)
	default: // ExprOp
		x := v.compile(e.X, sc)
		var y *node
		if e.Y != nil {
			y = v.compile(e.Y, sc)
		}
		return v.arith(e.Pos, opKinds[e.Op], x, y)
	}
}

// arith makes an arithmetic node over numeric operands, folded when
// they are constants.
func (v *validator) arith(pos Pos, kind nodeKind, x, y *node) *node {
	if x.str || y != nil && y.str {
		v.errorf(pos, "arithmetic over names is not defined")
	}
	n := v.node()
	if x.kind != nodeConst || y != nil && y.kind != nodeConst {
		n.kind, n.x, n.y = kind, x, y
		return n
	}
	for p := range n.val {
		yv := 0.0
		if y != nil {
			yv = y.val[p].Num
		}
		n.val[p].Num = arith(kind, x.val[p].Num, yv)
	}
	return n
}

// compileName resolves a bare name: an axis or, in a NOTE, a constant
// knob. An x or SET expression reads any axis at the point; a COL reads
// the x axis there and the single-valued ones as constants; a NOTE reads
// only constants.
func (v *validator) compileName(e *Expr, sc scope) *node {
	if ai := v.prog.axisIndex(e.Name); ai >= 0 {
		ax := &v.prog.Axes[ai]
		switch single := single(ax); {
		case sc.note && !single:
			v.errorf(e.Pos, "NOTE interpolation must be constant per profile; axis %s takes several values (use count(%s) for its length)", e.Name, e.Name)
		case (sc.note || sc.col && ai != sc.x) && single:
			n := v.node()
			n.val, n.str = [2]Scalar{axisValues(ax, false)[0], axisValues(ax, true)[0]}, axisIsString(ax)
			return n
		case sc.col && ai != sc.x:
			v.errorf(e.Pos, "axis %s takes several values; a COL expression reads only the x axis and single-valued axes", e.Name)
		case !sc.col && sc.knob == nil && !slices.Contains(v.xRefs, ai):
			v.xRefs = append(v.xRefs, ai)
		}
		n := v.node()
		n.kind, n.axis, n.str = nodeAxis, ai, axisIsString(ax)
		return n
	}
	if sc.note {
		// The last SET of a knob is the one each point applies.
		kn := lookupKnob(e.Name)
		for i := len(v.prog.Sets) - 1; kn != nil && i >= 0; i-- {
			set := &v.prog.Sets[i]
			if lookupKnob(set.Knob) != kn {
				continue
			}
			if full, fast := set.nodes[0], set.nodes[1]; full.kind == nodeConst && fast.kind == nodeConst {
				n := v.node()
				n.val, n.str = [2]Scalar{full.val[0], fast.val[1]}, full.str
				return n
			}
			break
		}
		v.errorf(e.Pos, "unknown name %q in NOTE interpolation (constant knobs, single-valued axes and count(axis) are allowed)", e.Name)
		return v.node()
	}
	v.errorf(e.Pos, "unknown name %q (not an axis%s)", e.Name, map[bool]string{true: " or metric", false: ""}[sc.col])
	return v.node()
}

// compileFunc checks a call of count, trunc, min or max.
func (v *validator) compileFunc(e *Expr, sc scope) *node {
	if !slices.Contains(exprFuncs, e.Name) {
		v.errorf(e.Pos, "unknown function or metric %q", e.Name)
		return v.node()
	}
	if len(e.Sel) > 0 {
		v.errorf(e.Sel[0].Pos, "%s is a function, not a metric; selectors do not apply", e.Name)
	}
	switch e.Name {
	case "count":
		if !sc.note {
			v.errorf(e.Pos, "count(axis) can only appear in NOTE interpolations")
			return v.node()
		}
		ai := -1
		if len(e.Args) == 1 && e.Args[0].Kind == ExprVar {
			ai = v.prog.axisIndex(e.Args[0].Name)
		}
		n := v.node()
		if ai < 0 {
			v.errorf(e.Pos, "count takes one axis name")
			return n
		}
		for p := range n.val {
			n.val[p].Num = float64(len(axisValues(&v.prog.Axes[ai], p == 1)))
		}
		return n
	case "trunc":
		if len(e.Args) != 1 {
			v.errorf(e.Pos, "trunc takes exactly one argument")
			return v.node()
		}
		return v.arith(e.Pos, nodeTrunc, v.compile(e.Args[0], sc), nil)
	default: // min, max
		if len(e.Args) < 2 {
			v.errorf(e.Pos, "%s takes at least two arguments", e.Name)
			return v.node()
		}
		kind := nodeMax
		if e.Name == "min" {
			kind = nodeMin
		}
		n := v.compile(e.Args[0], sc)
		for _, a := range e.Args[1:] {
			n = v.arith(e.Pos, kind, n, v.compile(a, sc))
		}
		return n
	}
}

// compileMetric checks a metric atom: its argument, its run mode, and
// that its selector, the x axis and the single-valued axes pin one point.
func (v *validator) compileMetric(e *Expr, sc scope, def *metricDef) *node {
	n := v.node()
	if !sc.col {
		v.errorf(e.Pos, "metric %s can only appear in COL expressions", e.Name)
		return n
	}
	if len(e.Args) > 0 {
		if len(e.Args) != 1 || e.Args[0].Kind != ExprVar {
			v.errorf(e.Pos, "metric %s takes one identifier argument", e.Name)
			return n
		}
		n.arg = e.Args[0].Name
	}
	n.kind, n.axis, n.read = nodeMetric, sc.x, def.reader(n.arg)
	if n.read == nil {
		v.errorf(e.Pos, "%s", def.usage(n.arg))
	}
	switch attrMode := v.mode == ModeAttrQuery; {
	case def.attr && !attrMode:
		v.errorf(e.Pos, "attr(...) only applies in RUN mode=attrquery scripts")
		return n
	case !def.attr && attrMode:
		v.errorf(e.Pos, "metric %s is a simulator metric; attrquery columns use attr(...)", e.Name)
		return n
	}
	for i, s := range e.Sel {
		ai := v.prog.axisIndex(s.Key)
		switch {
		case ai < 0:
			v.errorf(s.Pos, "selector key %q is not an axis", s.Key)
			continue
		case ai == sc.x:
			v.errorf(s.Pos, "selector pins %s, which is the table's x axis", s.Key)
			continue
		case selects(e.Sel[:i], s.Key):
			v.errorf(s.Pos, "selector pins %s twice", s.Key)
			continue
		}
		var lacks []string
		for p, profile := range [2]string{"full", "fast"} {
			if vi := valueIndex(axisValues(&v.prog.Axes[ai], p == 1), s.Val); vi >= 0 {
				n.off[p] += vi * span(v.prog.Axes, ai, p == 1)
			} else {
				lacks = append(lacks, profile)
			}
		}
		switch len(lacks) {
		case 1:
			v.errorf(s.Val.Pos, "axis %s has no value %s under the %s profile", s.Key, s.Val, lacks[0])
		case 2:
			v.errorf(s.Val.Pos, "axis %s never takes the value %s", s.Key, s.Val)
		}
	}
	for i := range v.prog.Axes {
		ax := &v.prog.Axes[i]
		if i != sc.x && !single(ax) && !selects(e.Sel, ax.Name) && !reservedName(ax.Name) {
			v.errorf(e.Pos, "metric %s does not pin axis %s (add {%s=...} or make it the x axis)", e.Name, ax.Name, ax.Name)
		}
	}
	return n
}

// selects reports whether a selector names the axis.
func selects(sel []SelItem, axis string) bool {
	return slices.ContainsFunc(sel, func(s SelItem) bool { return s.Key == axis })
}

// single reports whether an axis takes one value under both profiles.
func single(ax *AxisDecl) bool {
	return len(axisValues(ax, false)) == 1 && len(axisValues(ax, true)) == 1
}

// valueIndex is the index of s in vals, or -1.
func valueIndex(vals []Scalar, s Scalar) int {
	for i, val := range vals {
		if scalarsEqual(val, s) {
			return i
		}
	}
	return -1
}

// scalarsEqual compares axis values without floating == (bit equality
// keeps the comparison deterministic and exact for literals).
func scalarsEqual(a, b Scalar) bool {
	if a.IsStr != b.IsStr {
		return false
	}
	if a.IsStr {
		return a.Str == b.Str
	}
	return math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func (v *validator) checkTables() {
	if len(v.prog.Tables) == 0 {
		if len(v.prog.LooseSinks) == 0 {
			v.errorf(Pos{Line: 1, Col: 1}, "script has no TABLE and no EMIT; it would compute nothing")
			return
		}
		// The implicit table's columns depend on the profile.
		for p := range v.prog.implicit {
			if v.prog.implicit[p] = v.implicitTable(p); v.prog.implicit[p] == nil {
				return
			}
		}
		v.checkSinks(v.prog.LooseSinks)
		return
	}
	if len(v.prog.LooseSinks) > 0 {
		v.errorf(v.prog.LooseSinks[0].Pos, "EMIT before any TABLE stage (it has no table to bind to)")
	}
	seen := map[string]bool{}
	for _, t := range v.prog.Tables {
		if seen[t.ID] {
			v.errorf(t.Pos, "duplicate table %s", t.ID)
			continue
		}
		seen[t.ID] = true
		v.checkTable(t)
		v.checkSinks(t.Sinks)
	}
}

func (v *validator) checkTable(t *TableDecl) {
	t.xAxis = -1
	if t.XExpr == nil {
		v.errorf(t.Pos, "table %s needs an x(...) expression", t.ID)
		return
	}
	v.xRefs = v.xRefs[:0]
	if t.x = v.compile(t.XExpr, scope{x: -1}); t.x.str {
		v.errorf(t.XExpr.Pos, "table %s: the x expression must be numeric", t.ID)
	}
	if len(v.xRefs) != 1 {
		v.errorf(t.XExpr.Pos, "table %s: the x expression must reference exactly one axis, found %d", t.ID, len(v.xRefs))
	} else {
		t.xAxis = v.xRefs[0]
	}
	if len(t.Cols) == 0 {
		v.errorf(t.Pos, "table %s has no COL stages", t.ID)
	}
	colSeen := map[string]bool{}
	for i := range t.Cols {
		col := &t.Cols[i]
		if colSeen[col.Label] {
			v.errorf(col.Pos, "table %s: duplicate column %q", t.ID, col.Label)
		}
		colSeen[col.Label] = true
		if col.node = v.compile(col.Expr, scope{col: true, x: t.xAxis}); col.node.str {
			v.errorf(col.Expr.Pos, "table %s: column %q must be numeric", t.ID, col.Label)
		}
	}
	for i := range t.Notes {
		for j := range t.Notes[i].Parts {
			if part := &t.Notes[i].Parts[j]; part.Expr != nil {
				part.node = v.compile(part.Expr, scope{note: true, x: -1})
			}
		}
	}
}

// scriptName is a script's display name: the file base without .airql.
func scriptName(file string) string {
	id := strings.TrimSuffix(filepath.Base(file), ".airql")
	if id == "" || id == "." {
		return "sweep"
	}
	return id
}

// implicitTable builds, already compiled, the table of a script that
// EMITs without declaring one (the one-liner form) under profile p: x is
// the first numeric axis, and every combination of the other axes that
// take several values becomes an access/tuning column pair.
func (v *validator) implicitTable(p int) *TableDecl {
	axes, pos := v.prog.Axes, Pos{Line: 1, Col: 1}
	xi := slices.IndexFunc(axes, func(ax AxisDecl) bool { return !axisIsString(&ax) })
	switch {
	case xi < 0:
		v.errorf(pos, "EMIT without TABLE needs at least one numeric axis for the x column")
		return nil
	case v.mode == ModeAttrQuery:
		v.errorf(pos, "EMIT without TABLE reads simulator metrics; attrquery columns use attr(...)")
		return nil
	}
	t := &TableDecl{ID: scriptName(v.prog.File), Pos: pos, Title: "ad-hoc sweep", XLabel: axes[xi].Name, YLabel: "bytes",
		Sinks: v.prog.LooseSinks, x: &node{kind: nodeAxis, axis: xi}, xAxis: xi}
	type combo struct {
		label string
		off   int // the linear index of its point at the x axis's first value
	}
	combos := []combo{{}}
	for i := range axes {
		vals := axisValues(&axes[i], p == 1)
		if i == xi || len(vals) == 1 {
			continue
		}
		var next []combo
		for _, c := range combos {
			for vi, val := range vals {
				next = append(next, combo{c.label + axes[i].Name + "=" + val.String() + " ", c.off + vi*span(axes, i, p == 1)})
			}
		}
		combos = next
	}
	mean := lookupMetric("mean")
	for _, c := range combos {
		for _, arg := range []string{"access", "tuning"} {
			n := &node{kind: nodeMetric, axis: xi, read: mean.reader(arg)}
			n.off[p] = c.off
			t.Cols = append(t.Cols, ColDecl{Label: c.label + arg, Pos: pos, node: n})
		}
	}
	return t
}

func (v *validator) checkSinks(sinks []SinkDecl) {
	for _, s := range sinks {
		switch s.Name {
		case "csv":
			if s.Arg == "" {
				v.errorf(s.Pos, "csv sink needs a path: csv(results/name.csv)")
			} else if strings.HasPrefix(s.Arg, "/") {
				v.errorf(s.Pos, "csv path %q must be relative (it is joined to the output root)", s.Arg)
			}
		case "summary":
			if s.Arg != "stdout" {
				v.errorf(s.Pos, "summary sink writes to stdout: summary(stdout)")
			}
		default:
			v.errorf(s.Pos, "unknown sink %q (want csv or summary)", s.Name)
		}
	}
}
