package airql

// OpKind identifies an arithmetic operator in an expression. Closed
// enum under the exhaustive analyzer.
type OpKind uint8

const (
	// OpAdd, OpSub, OpMul, OpDiv are the binary operators.
	OpAdd OpKind = iota
	OpSub
	OpMul
	OpDiv
	// OpNeg is unary minus.
	OpNeg
)

// ExprKind discriminates Expr nodes. Closed enum under the exhaustive
// analyzer, which is exactly why the AST uses a tagged struct instead
// of an interface: adding a node kind without updating every evaluator
// switch becomes a lint error.
type ExprKind uint8

const (
	// ExprNum is a numeric literal (possibly byte-suffixed).
	ExprNum ExprKind = iota
	// ExprStr is a string literal.
	ExprStr
	// ExprVar is a bare identifier: an axis reference or a
	// zero-argument metric (requests, cycle_bytes, ...).
	ExprVar
	// ExprCall is name(args){selector}: functions (min, max, trunc),
	// metrics (mean(access), analytic(tuning), param(fanout), attr(x))
	// and any bare identifier carrying a {..} selector.
	ExprCall
	// ExprOp is an arithmetic node.
	ExprOp
)

// Expr is an expression node. Kind selects which fields are meaningful.
type Expr struct {
	Kind ExprKind
	Pos  Pos

	// ExprNum
	Num   float64
	Bytes bool

	// ExprStr
	Str string

	// ExprVar and ExprCall
	Name string
	// ExprCall only
	Args []*Expr
	Sel  []SelItem

	// ExprOp
	Op   OpKind
	X, Y *Expr // Y is nil for OpNeg
}

// SelItem pins one axis inside a metric selector, e.g. {scheme=flat}.
type SelItem struct {
	Key string
	Pos Pos
	Val Scalar
}

// Scalar is a literal value: a number (possibly a byte quantity) or a
// bare/quoted string. Axis values, RUN values and selector values are
// scalars.
type Scalar struct {
	Pos   Pos
	IsStr bool
	Str   string
	Num   float64
	Bytes bool
}

// String renders the scalar the way a script would spell it.
func (s Scalar) String() string {
	if s.IsStr {
		return s.Str
	}
	return formatFloat(s.Num)
}

// AxisDecl is one SWEEP axis. Values holds the full-profile points in
// declaration order; Fast, when present, replaces them under the fast
// profile (mirroring the fast/paper value pairs the Go experiment
// functions used to hard-code).
type AxisDecl struct {
	Name    string
	Pos     Pos
	Values  []Scalar
	Fast    []Scalar
	HasFast bool
}

// SetDecl is one SET binding. The expression is evaluated per point
// over the axis environment; FastExpr, when present, replaces it under
// the fast profile.
type SetDecl struct {
	Knob     string
	Pos      Pos
	Expr     *Expr
	FastExpr *Expr

	nodes [2]*node // Expr and FastExpr compiled, per profile
}

// RunDecl is one RUN key=value pair.
type RunDecl struct {
	Key string
	Pos Pos
	Val Scalar
}

// TableDecl declares one output table.
type TableDecl struct {
	ID     string
	Pos    Pos
	Title  string
	XExpr  *Expr
	XLabel string
	YLabel string

	// Filled by subsequent COL/NOTE/EMIT stages.
	Cols  []ColDecl
	Notes []NoteDecl
	Sinks []SinkDecl

	x     *node // XExpr compiled
	xAxis int   // the axis XExpr reads
}

// ColDecl is one COL stage: a labelled column expression.
type ColDecl struct {
	Label string
	Pos   Pos
	Expr  *Expr

	node *node
}

// NoteDecl is one NOTE stage. The string is split into literal text and
// interpolated {expr} parts at parse time.
type NoteDecl struct {
	Pos   Pos
	Parts []NotePart
}

// NotePart is either literal text (Expr nil) or an interpolation.
type NotePart struct {
	Text string
	Expr *Expr

	node *node
}

// SinkDecl is one EMIT sink: csv(path) or summary(stdout).
type SinkDecl struct {
	Name string
	Pos  Pos
	Arg  string
}

// Program is a compiled script: the parsed AST whose expressions
// Validate has compiled into checked nodes (see node).
type Program struct {
	File   string
	Axes   []AxisDecl
	Sets   []SetDecl
	Runs   []RunDecl
	Tables []*TableDecl

	// Sinks declared before any TABLE (legal only when the script
	// declares no tables at all: they bind to the implicit table).
	LooseSinks []SinkDecl

	// implicit is the table of a script without TABLE stages, per
	// profile; checked is set once Validate accepts the program.
	implicit [2]*TableDecl
	checked  bool
}
