package airql

import (
	"fmt"
	"math"
	"strings"
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

// Metric vocabulary. These names are reserved: axes cannot shadow them.
var (
	// bareMetrics are zero-argument per-point metrics.
	bareMetrics = []string{"requests", "restarts", "wasted", "cycle_bytes", "switches", "unrecovered"}
	// callMetrics take one identifier argument.
	callMetrics = []string{"mean", "p95", "p99", "analytic", "param", "attr"}
	// exprFuncs are plain arithmetic helpers.
	exprFuncs = []string{"min", "max", "trunc", "count"}
	// attrMetricNames is attr(...)'s vocabulary, matching the attrquery
	// harness's four accumulators.
	attrMetricNames = []string{"flat_access", "flat_tuning", "sig_access", "sig_tuning"}
)

func inList(name string, list []string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}

func reservedName(name string) bool {
	return name == "fast" || inList(name, bareMetrics) || inList(name, callMetrics) || inList(name, exprFuncs)
}

// validator accumulates semantic diagnostics over a parsed program.
type validator struct {
	prog *Program
	errs ErrorList

	// axisNames in declaration order; axisOf resolves a name.
	axisNames []string

	// possibleSchemes is every canonical scheme a point can take.
	possibleSchemes []string

	// constKnobs are SET knobs whose expressions are constant, per
	// profile (NOTE interpolation vocabulary). Index 0 = full, 1 = fast.
	constKnobs [2]map[string]float64

	mode string
}

func (v *validator) errorf(pos Pos, format string, args ...any) {
	v.errs = append(v.errs, &Error{File: v.prog.File, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// Validate type-checks a parsed program against the real configuration
// surface. It returns every diagnostic it can find, in source order.
func Validate(prog *Program) ErrorList {
	v := newValidator(prog)
	v.checkRuns()
	v.checkAxes()
	v.checkSets()
	v.checkFaultKnobs()
	v.checkSchemeAndRecords()
	v.checkTables()
	return v.errs
}

func newValidator(prog *Program) *validator {
	v := &validator{prog: prog, mode: ModeSim}
	v.constKnobs[0] = map[string]float64{}
	v.constKnobs[1] = map[string]float64{}
	return v
}

func (v *validator) axisOf(name string) *AxisDecl {
	for i := range v.prog.Axes {
		if v.prog.Axes[i].Name == name {
			return &v.prog.Axes[i]
		}
	}
	return nil
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
		if v.axisOf(ax.Name) != ax {
			v.errorf(ax.Pos, "duplicate axis %s", ax.Name)
			continue
		}
		if reservedName(ax.Name) {
			v.errorf(ax.Pos, "axis name %q is reserved (metric and function names cannot be axes)", ax.Name)
			continue
		}
		v.axisNames = append(v.axisNames, ax.Name)

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
}

// possibleSchemeStrings collects every scheme spelling a point can take
// (axis values or SET literal), canonicalised.
func (v *validator) checkSchemeAndRecords() {
	if v.mode == ModeAttrQuery {
		// The attrquery harness hard-codes its flat-vs-signature pair.
		if ax := v.axisOf("scheme"); ax != nil {
			v.errorf(ax.Pos, "attrquery mode runs flat and signature; the scheme cannot be swept")
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
		return
	}

	if ax := v.axisOf("scheme"); ax != nil {
		for _, val := range ax.Values {
			if c, ok := canonScheme(val.Str); ok && val.IsStr {
				if !inList(c, v.possibleSchemes) {
					v.possibleSchemes = append(v.possibleSchemes, c)
				}
			}
		}
		for _, val := range ax.Fast {
			if c, ok := canonScheme(val.Str); ok && val.IsStr {
				if !inList(c, v.possibleSchemes) {
					v.possibleSchemes = append(v.possibleSchemes, c)
				}
			}
		}
	}
	hasScheme := v.axisOf("scheme") != nil
	for _, set := range v.prog.Sets {
		kn := lookupKnob(set.Knob)
		if kn == nil || kn.name != "scheme" {
			continue
		}
		hasScheme = true
		for _, e := range []*Expr{set.Expr, set.FastExpr} {
			if e == nil {
				continue
			}
			if s, ok := schemeLiteral(e); ok {
				if c, ok := canonScheme(s); ok && !inList(c, v.possibleSchemes) {
					v.possibleSchemes = append(v.possibleSchemes, c)
				}
			}
		}
	}
	if !hasScheme {
		v.errorf(Pos{Line: 1, Col: 1}, "script never sets the scheme (SWEEP scheme=... or SET scheme=...)")
	}

	// Scheme-incompatible knobs: every scheme the script can run must
	// accept every restricted knob it sets.
	checkCompat := func(kn *knob, pos Pos) {
		if kn == nil || kn.schemes == nil {
			return
		}
		for _, s := range v.possibleSchemes {
			if !kn.compatibleWith(s) {
				v.errorf(pos, "knob %s applies only to %s, but the script also runs scheme %q",
					kn.name, strings.Join(kn.schemes, "/"), s)
			}
		}
	}
	for i := range v.prog.Axes {
		checkCompat(lookupKnob(v.prog.Axes[i].Name), v.prog.Axes[i].Pos)
	}
	for i := range v.prog.Sets {
		checkCompat(lookupKnob(v.prog.Sets[i].Knob), v.prog.Sets[i].Pos)
	}
}

// schemeLiteral extracts the scheme spelling of a SET scheme expression:
// a quoted string or a bare identifier that is not an axis.
func schemeLiteral(e *Expr) (string, bool) {
	switch e.Kind {
	case ExprStr:
		return e.Str, true
	case ExprVar:
		return e.Name, true
	case ExprNum, ExprCall, ExprOp:
		return "", false
	default:
		return "", false
	}
}

func (v *validator) checkSets() {
	for i := range v.prog.Sets {
		set := &v.prog.Sets[i]
		kn := lookupKnob(set.Knob)
		if kn == nil {
			if v.axisOf(set.Knob) != nil {
				v.errorf(set.Pos, "%s is an axis; axes are swept by SWEEP, not assigned by SET", set.Knob)
			} else {
				v.errorf(set.Pos, "unknown knob %q (knobs: %s)", set.Knob, strings.Join(KnobNames(), ", "))
			}
			continue
		}
		for fi, e := range []*Expr{set.Expr, set.FastExpr} {
			if e == nil {
				continue
			}
			if kn.isString {
				v.checkStringKnobExpr(kn, e)
				continue
			}
			info := v.checkExpr(e, exprScope{allowAxes: true, knob: kn})
			if info.constant && !info.isStr {
				// checkExpr already reported any unit mismatch on the
				// literal itself, so the folded value is unit-clean here.
				val := Scalar{Pos: e.Pos, Num: info.num}
				if msg := checkKnobScalar(kn, val); msg != "" {
					v.errorf(e.Pos, "%s", msg)
				}
				v.constKnobs[fi][kn.name] = info.num
				if fi == 0 && set.FastExpr == nil {
					v.constKnobs[1][kn.name] = info.num
				}
			}
		}
	}
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

// checkStringKnobExpr validates a vocabulary knob's value: a quoted
// string, a bare name, or a reference to a string axis.
func (v *validator) checkStringKnobExpr(kn *knob, e *Expr) {
	switch e.Kind {
	case ExprStr:
		if _, ok := kn.vocab(e.Str); !ok {
			v.errorf(e.Pos, "knob %s: unknown value %q (%s)", kn.name, e.Str, kn.vocabDoc)
		}
	case ExprVar:
		if ax := v.axisOf(e.Name); ax != nil {
			if !axisIsString(ax) {
				v.errorf(e.Pos, "knob %s takes a name but axis %s holds numbers", kn.name, e.Name)
			}
			return
		}
		if _, ok := kn.vocab(e.Name); !ok {
			v.errorf(e.Pos, "knob %s: unknown value %q (%s)", kn.name, e.Name, kn.vocabDoc)
		}
	default:
		v.errorf(e.Pos, "knob %s takes a name (%s), not an expression", kn.name, kn.vocabDoc)
	}
}

// exprScope says what an expression may reference where it appears.
type exprScope struct {
	allowAxes    bool
	allowMetrics bool
	noteMode     bool
	knob         *knob // SET target, for unit errors
	table        *TableDecl
}

// exprInfo is the static shape of a checked expression.
type exprInfo struct {
	isStr    bool
	constant bool
	num      float64
	hasBytes bool
	// axisRefs lists axes referenced outside selectors, in first-use
	// order (the x-expression check needs exactly one).
	axisRefs []string
}

func mergeRefs(a, b []string) []string {
	for _, r := range b {
		if !inList(r, a) {
			a = append(a, r)
		}
	}
	return a
}

// checkExpr walks an expression, collecting diagnostics; it returns what
// it could determine statically.
func (v *validator) checkExpr(e *Expr, sc exprScope) exprInfo {
	switch e.Kind {
	case ExprNum:
		if e.Bytes && sc.knob != nil && !sc.knob.isBytes {
			v.errorf(e.Pos, "unit mismatch: knob %s is dimensionless but the value has a byte unit", sc.knob.name)
		}
		if e.Bytes && sc.knob == nil {
			v.errorf(e.Pos, "byte units only apply to byte-quantity knobs, not to %s", describeScope(sc))
		}
		return exprInfo{constant: true, num: e.Num, hasBytes: e.Bytes}
	case ExprStr:
		v.errorf(e.Pos, "a string cannot appear in %s", describeScope(sc))
		return exprInfo{isStr: true}
	case ExprVar:
		return v.checkVar(e, sc)
	case ExprCall:
		return v.checkCall(e, sc)
	case ExprOp:
		xi := v.checkExpr(e.X, sc)
		info := exprInfo{axisRefs: xi.axisRefs, hasBytes: xi.hasBytes}
		var yi exprInfo
		if e.Y != nil {
			yi = v.checkExpr(e.Y, sc)
			info.axisRefs = mergeRefs(info.axisRefs, yi.axisRefs)
			info.hasBytes = info.hasBytes || yi.hasBytes
		}
		if xi.isStr || yi.isStr {
			v.errorf(e.Pos, "arithmetic over names is not defined")
			return info
		}
		if xi.constant && (e.Y == nil || yi.constant) {
			info.constant = true
			switch e.Op {
			case OpAdd:
				info.num = xi.num + yi.num
			case OpSub:
				info.num = xi.num - yi.num
			case OpMul:
				info.num = xi.num * yi.num
			case OpDiv:
				info.num = xi.num / yi.num
			case OpNeg:
				info.num = -xi.num
			default:
				info.constant = false
			}
		}
		return info
	default:
		return exprInfo{}
	}
}

func describeScope(sc exprScope) string {
	switch {
	case sc.noteMode:
		return "a NOTE interpolation"
	case sc.table != nil:
		return "a table expression"
	case sc.knob != nil:
		return "the expression for knob " + sc.knob.name
	default:
		return "this expression"
	}
}

func (v *validator) checkVar(e *Expr, sc exprScope) exprInfo {
	if inList(e.Name, bareMetrics) {
		if !sc.allowMetrics {
			v.errorf(e.Pos, "metric %s can only appear in COL expressions", e.Name)
			return exprInfo{}
		}
		if v.mode == ModeAttrQuery {
			v.errorf(e.Pos, "metric %s is a simulator metric; attrquery columns use attr(...)", e.Name)
		}
		return exprInfo{}
	}
	if ax := v.axisOf(e.Name); ax != nil {
		if sc.noteMode {
			if len(axisValues(ax, false)) > 1 || len(axisValues(ax, true)) > 1 {
				v.errorf(e.Pos, "NOTE interpolation must be constant per profile; axis %s takes several values (use count(%s) for its length)", e.Name, e.Name)
				return exprInfo{}
			}
			return exprInfo{axisRefs: []string{e.Name}, isStr: axisIsString(ax)}
		}
		if !sc.allowAxes {
			v.errorf(e.Pos, "axis %s cannot be referenced in %s", e.Name, describeScope(sc))
			return exprInfo{}
		}
		return exprInfo{axisRefs: []string{e.Name}, isStr: axisIsString(ax)}
	}
	if sc.noteMode {
		for fi := range v.constKnobs {
			if val, ok := v.constKnobs[fi][knobNameFor(e.Name)]; ok {
				return exprInfo{constant: fi == 0, num: val}
			}
		}
		v.errorf(e.Pos, "unknown name %q in NOTE interpolation (constant knobs, single-valued axes and count(axis) are allowed)", e.Name)
		return exprInfo{}
	}
	v.errorf(e.Pos, "unknown name %q (not an axis%s)", e.Name, map[bool]string{true: " or metric", false: ""}[sc.allowMetrics])
	return exprInfo{}
}

// knobNameFor resolves aliases for NOTE lookups.
func knobNameFor(name string) string {
	if canon, ok := knobAliases[name]; ok {
		return canon
	}
	return name
}

func (v *validator) checkCall(e *Expr, sc exprScope) exprInfo {
	name := e.Name
	switch {
	case inList(name, exprFuncs):
		if len(e.Sel) > 0 {
			v.errorf(e.Sel[0].Pos, "%s is a function, not a metric; selectors do not apply", name)
		}
		return v.checkFunc(e, sc)
	case inList(name, callMetrics), inList(name, bareMetrics):
		if !sc.allowMetrics {
			v.errorf(e.Pos, "metric %s can only appear in COL expressions", name)
			return exprInfo{}
		}
		v.checkMetric(e, sc)
		return exprInfo{}
	default:
		v.errorf(e.Pos, "unknown function or metric %q", name)
		return exprInfo{}
	}
}

func (v *validator) checkFunc(e *Expr, sc exprScope) exprInfo {
	switch e.Name {
	case "count":
		if !sc.noteMode {
			v.errorf(e.Pos, "count(axis) can only appear in NOTE interpolations")
			return exprInfo{}
		}
		if len(e.Args) != 1 || e.Args[0].Kind != ExprVar || v.axisOf(e.Args[0].Name) == nil {
			v.errorf(e.Pos, "count takes one axis name")
			return exprInfo{}
		}
		return exprInfo{}
	case "trunc":
		if len(e.Args) != 1 {
			v.errorf(e.Pos, "trunc takes exactly one argument")
			return exprInfo{}
		}
		info := v.checkExpr(e.Args[0], sc)
		if info.constant {
			info.num = math.Trunc(info.num)
		}
		return info
	case "min", "max":
		if len(e.Args) < 2 {
			v.errorf(e.Pos, "%s takes at least two arguments", e.Name)
			return exprInfo{}
		}
		out := exprInfo{constant: true}
		for i, a := range e.Args {
			info := v.checkExpr(a, sc)
			out.axisRefs = mergeRefs(out.axisRefs, info.axisRefs)
			out.hasBytes = out.hasBytes || info.hasBytes
			if !info.constant {
				out.constant = false
				continue
			}
			if i == 0 || !out.constant {
				out.num = info.num
				continue
			}
			if e.Name == "min" {
				out.num = math.Min(out.num, info.num)
			} else {
				out.num = math.Max(out.num, info.num)
			}
		}
		return out
	default:
		v.errorf(e.Pos, "unknown function %q", e.Name)
		return exprInfo{}
	}
}

// checkMetric validates a metric atom's argument, selector and pinning.
func (v *validator) checkMetric(e *Expr, sc exprScope) {
	arg := ""
	if len(e.Args) > 0 {
		if len(e.Args) != 1 || e.Args[0].Kind != ExprVar {
			v.errorf(e.Pos, "metric %s takes one identifier argument", e.Name)
			return
		}
		arg = e.Args[0].Name
	}
	switch e.Name {
	case "mean":
		if !inList(arg, []string{"access", "tuning", "probes", "energy"}) {
			v.errorf(e.Pos, "mean takes access, tuning, probes or energy, not %q", arg)
		}
	case "p95", "p99":
		if !inList(arg, []string{"access", "tuning"}) {
			v.errorf(e.Pos, "%s takes access or tuning, not %q", e.Name, arg)
		}
	case "analytic":
		if !inList(arg, []string{"access", "tuning"}) {
			v.errorf(e.Pos, "analytic takes access or tuning, not %q", arg)
		}
	case "param":
		if arg == "" {
			v.errorf(e.Pos, "param takes the name of a scheme parameter, e.g. param(fanout)")
		}
	case "attr":
		if v.mode != ModeAttrQuery {
			v.errorf(e.Pos, "attr(...) only applies in RUN mode=attrquery scripts")
		}
		if !inList(arg, attrMetricNames) {
			v.errorf(e.Pos, "attr takes one of %s, not %q", strings.Join(attrMetricNames, ", "), arg)
		}
		return // no selector machinery: attrquery has a single axis
	default:
		if arg != "" {
			v.errorf(e.Pos, "metric %s takes no argument", e.Name)
		}
	}
	if v.mode == ModeAttrQuery {
		v.errorf(e.Pos, "metric %s is a simulator metric; attrquery columns use attr(...)", e.Name)
		return
	}

	// Selector checks: keys must be axes, values must be values the axis
	// actually takes, and together with the x axis and single-valued
	// axes they must pin every axis to one point.
	pinned := map[string]bool{}
	if sc.table != nil && sc.table.XExpr != nil {
		xi := v.checkedXAxis(sc.table)
		if xi != "" {
			pinned[xi] = true
		}
	}
	for i := range v.prog.Axes {
		ax := &v.prog.Axes[i]
		if len(axisValues(ax, false)) <= 1 && len(axisValues(ax, true)) <= 1 {
			pinned[ax.Name] = true
		}
	}
	for _, s := range e.Sel {
		ax := v.axisOf(s.Key)
		if ax == nil {
			v.errorf(s.Pos, "selector key %q is not an axis", s.Key)
			continue
		}
		if pinned[s.Key] && v.checkedXAxis(sc.table) == s.Key {
			v.errorf(s.Pos, "selector pins %s, which is the table's x axis", s.Key)
			continue
		}
		found := false
		for _, profileFast := range []bool{false, true} {
			for _, val := range axisValues(ax, profileFast) {
				if scalarsEqual(val, s.Val) {
					found = true
				}
			}
		}
		if !found {
			v.errorf(s.Val.Pos, "axis %s never takes the value %s", s.Key, s.Val)
		}
		pinned[s.Key] = true
	}
	for _, name := range v.axisNames {
		if !pinned[name] {
			v.errorf(e.Pos, "metric %s does not pin axis %s (add {%s=...} or make it the x axis)", e.Name, name, name)
		}
	}
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

// checkedXAxis returns the single axis a table's x expression references
// ("" while diagnostics are pending).
func (v *validator) checkedXAxis(t *TableDecl) string {
	if t == nil || t.XExpr == nil {
		return ""
	}
	info := v.collectRefs(t.XExpr)
	if len(info) == 1 {
		return info[0]
	}
	return ""
}

// collectRefs lists axis references of an expression without emitting
// diagnostics (used after the expression was already checked).
func (v *validator) collectRefs(e *Expr) []string {
	return exprAxisRefs(v.prog, e)
}

func (v *validator) checkTables() {
	if len(v.prog.Tables) == 0 {
		if len(v.prog.LooseSinks) == 0 {
			v.errorf(Pos{Line: 1, Col: 1}, "script has no TABLE and no EMIT; it would compute nothing")
			return
		}
		t, err := implicitTable(v.prog, false)
		if err != nil {
			v.errs = append(v.errs, err)
			return
		}
		v.checkTable(t)
		v.checkSinks(t.Sinks)
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
	if t.XExpr == nil {
		v.errorf(t.Pos, "table %s needs an x(...) expression", t.ID)
		return
	}
	info := v.checkExpr(t.XExpr, exprScope{allowAxes: true, table: t})
	if info.isStr {
		v.errorf(t.XExpr.Pos, "table %s: the x expression must be numeric", t.ID)
	}
	if len(info.axisRefs) != 1 {
		v.errorf(t.XExpr.Pos, "table %s: the x expression must reference exactly one axis, found %d", t.ID, len(info.axisRefs))
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
		ci := v.checkExpr(col.Expr, exprScope{allowAxes: true, allowMetrics: true, table: t})
		if ci.isStr {
			v.errorf(col.Expr.Pos, "table %s: column %q must be numeric", t.ID, col.Label)
		}
	}
	for i := range t.Notes {
		for _, part := range t.Notes[i].Parts {
			if part.Expr != nil {
				v.checkExpr(part.Expr, exprScope{noteMode: true})
			}
		}
	}
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
