package airql

import (
	"fmt"
	"math"
	"strings"

	"github.com/airindex/airindex/internal/core"
)

// node is a checked expression. Validate compiles every SET, x, COL and
// NOTE expression into one, resolved under both profiles (index 0 is the
// full profile, 1 the fast one), and Execute only evaluates it.
type node struct {
	kind nodeKind
	// str marks a node whose value is a name: a string literal or axis.
	str bool
	// val is a constant's value under each profile.
	val [2]Scalar
	// axis is the axis a nodeAxis reads, and the table's x axis, whose
	// row a nodeMetric reads.
	axis int
	x, y *node // operands; y is nil for the unary kinds
	// read and arg are a metric's accessor and argument; off is the
	// linear index, under each profile, of the point its selector pins
	// at the x axis's first value.
	read func(p point) float64
	arg  string
	off  [2]int
}

// nodeKind is what a node computes. Closed enum under the exhaustive
// analyzer.
type nodeKind uint8

const (
	// nodeConst is a literal, or an expression folded to one per profile.
	nodeConst nodeKind = iota
	// nodeAxis reads an axis at the point.
	nodeAxis
	// nodeMetric reads a finished point.
	nodeMetric
	// The arithmetic kinds; nodeNeg and nodeTrunc are unary.
	nodeAdd
	nodeSub
	nodeMul
	nodeDiv
	nodeNeg
	nodeTrunc
	nodeMin
	nodeMax
)

// opKinds maps the AST's operators onto node kinds.
var opKinds = [...]nodeKind{OpAdd: nodeAdd, OpSub: nodeSub, OpMul: nodeMul, OpDiv: nodeDiv, OpNeg: nodeNeg}

// eval computes n at the point idx binds (one value index per axis, nil
// where n reads no axis). It has no error: Validate resolved every name,
// scope, selector and type under both profiles.
func (n *node) eval(ex *executor, idx []int) Scalar {
	switch n.kind {
	case nodeConst:
		return n.val[ex.profile]
	case nodeAxis:
		return ex.axes[n.axis].vals[idx[n.axis]]
	case nodeMetric:
		return Scalar{Num: n.read(ex.point(n.off[ex.profile]+idx[n.axis]*ex.stride[n.axis], n.arg))}
	default:
		x, y := n.x.eval(ex, idx).Num, 0.0
		if n.y != nil {
			y = n.y.eval(ex, idx).Num
		}
		return Scalar{Num: arith(n.kind, x, y)}
	}
}

// arith applies an arithmetic kind; Validate folds constants with it too.
func arith(k nodeKind, x, y float64) float64 {
	switch k {
	case nodeAdd:
		return x + y
	case nodeSub:
		return x - y
	case nodeMul:
		return x * y
	case nodeDiv:
		return x / y
	case nodeTrunc:
		return math.Trunc(x)
	case nodeMin:
		return math.Min(x, y)
	case nodeMax:
		return math.Max(x, y)
	default: // nodeNeg: the leaf kinds never reach arith
		return -x
	}
}

// point is what a metric reads: one finished sweep point, and the
// metric's argument.
type point struct {
	cfg  *core.Config
	res  *core.Result
	attr *attrRow
	arg  string
}

// metricArg is one argument a metric takes, with its accessor.
type metricArg struct {
	name string
	read func(p point) float64
}

// metricDef is one metric of COL expressions. A bare counter's only
// argument is unnamed; param's, named "*", takes any scheme parameter.
type metricDef struct {
	name string
	args []metricArg
	attr bool // reads the attrquery harness, not a simulator run
}

// metrics is the one metric vocabulary: the checker reads it for its
// diagnostics, the evaluator for its accessors. Metric names are
// reserved, so axes cannot shadow them.
var metrics = []metricDef{
	{name: "mean", args: []metricArg{
		{"access", func(p point) float64 { return p.res.Access.Mean() }},
		{"tuning", func(p point) float64 { return p.res.Tuning.Mean() }},
		{"probes", func(p point) float64 { return p.res.Probes.Mean() }},
		{"energy", func(p point) float64 { return p.res.Energy.Mean() }},
	}},
	{name: "p95", args: []metricArg{
		{"access", func(p point) float64 { return p.res.AccessP95 }},
		{"tuning", func(p point) float64 { return p.res.TuningP95 }},
	}},
	{name: "p99", args: []metricArg{
		{"access", func(p point) float64 { return p.res.AccessP99 }},
		{"tuning", func(p point) float64 { return p.res.TuningP99 }},
	}},
	{name: "analytic", args: []metricArg{
		{"access", func(p point) float64 { a, _ := core.Analytic(*p.cfg, p.res.Params); return a }},
		{"tuning", func(p point) float64 { _, t := core.Analytic(*p.cfg, p.res.Params); return t }},
	}},
	{name: "param", args: []metricArg{{"*", func(p point) float64 { return p.res.Params[p.arg] }}}},
	{name: "attr", attr: true, args: []metricArg{
		{"flat_access", func(p point) float64 { return p.attr.flatAccess }},
		{"flat_tuning", func(p point) float64 { return p.attr.flatTuning }},
		{"sig_access", func(p point) float64 { return p.attr.sigAccess }},
		{"sig_tuning", func(p point) float64 { return p.attr.sigTuning }},
	}},
	{name: "requests", args: []metricArg{{"", func(p point) float64 { return float64(p.res.Requests) }}}},
	{name: "restarts", args: []metricArg{{"", func(p point) float64 { return float64(p.res.Restarts) }}}},
	{name: "wasted", args: []metricArg{{"", func(p point) float64 { return float64(p.res.WastedBytes) }}}},
	{name: "cycle_bytes", args: []metricArg{{"", func(p point) float64 { return float64(p.res.CycleBytes) }}}},
	{name: "switches", args: []metricArg{{"", func(p point) float64 { return float64(p.res.Switches) }}}},
	{name: "unrecovered", args: []metricArg{{"", func(p point) float64 { return float64(p.res.Unrecovered) }}}},
}

func lookupMetric(name string) *metricDef {
	for i := range metrics {
		if metrics[i].name == name {
			return &metrics[i]
		}
	}
	return nil
}

// bare reports whether d is a counter, written without an argument.
func (d *metricDef) bare() bool { return d.args[0].name == "" }

// reader returns d's accessor for arg, or nil when d does not take it.
func (d *metricDef) reader(arg string) func(point) float64 {
	for _, a := range d.args {
		if a.name == arg || a.name == "*" && arg != "" {
			return a.read
		}
	}
	return nil
}

// usage says what d takes, for a diagnostic about the argument arg.
func (d *metricDef) usage(arg string) string {
	switch {
	case d.bare():
		return "metric " + d.name + " takes no argument"
	case d.args[0].name == "*":
		return d.name + " takes the name of a scheme parameter, e.g. param(fanout)"
	}
	names := make([]string, len(d.args))
	for i, a := range d.args {
		names[i] = a.name
	}
	last := len(names) - 1
	return fmt.Sprintf("%s takes %s or %s, not %q", d.name, strings.Join(names[:last], ", "), names[last], arg)
}
