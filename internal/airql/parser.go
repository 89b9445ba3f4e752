package airql

import (
	"fmt"
	"strings"
)

// parser is a recursive-descent parser with one token of lookahead.
// Syntax errors stop the parse (fail-fast); semantic errors are
// collected later by Validate so -check can report several at once.
type parser struct {
	lx  *lexer
	cur Token
}

// Parse turns a script into a raw AST. Callers normally want Compile,
// which also validates.
func Parse(file, src string) (*Program, error) {
	p := &parser{lx: newLexer(file, src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	prog.File = file
	return prog, nil
}

// Compile parses and validates a script. The returned error, if any,
// is an *Error or an ErrorList; every diagnostic carries file:line:col.
func Compile(file, src string) (*Program, error) {
	prog, err := Parse(file, src)
	if err != nil {
		return nil, err
	}
	if errs := Validate(prog); len(errs) > 0 {
		return nil, errs
	}
	return prog, nil
}

func (p *parser) advance() *Error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

func (p *parser) errorf(pos Pos, format string, args ...any) *Error {
	return &Error{File: p.lx.file, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of the given kind. The error's context is the
// concatenation of its parts, joined only on error, not once per token.
func (p *parser) expect(kind TokenKind, context ...string) (Token, *Error) {
	if p.cur.Kind != kind {
		return Token{}, p.errorf(p.cur.Pos, "expected %s in %s, found %s", kind, strings.Join(context, ""), p.cur.Kind)
	}
	tok := p.cur
	if err := p.advance(); err != nil {
		return Token{}, err
	}
	return tok, nil
}

func (p *parser) atStageEnd() bool {
	switch p.cur.Kind {
	case TokenNewline, TokenPipe, TokenEOF:
		return true
	case TokenIdent, TokenNumber, TokenString, TokenAssign, TokenComma,
		TokenLParen, TokenRParen, TokenLBrace, TokenRBrace, TokenRange,
		TokenColon, TokenPlus, TokenMinus, TokenStar, TokenSlash:
		return false
	default:
		return false
	}
}

func (p *parser) skipSeparators() *Error {
	for p.cur.Kind == TokenNewline || p.cur.Kind == TokenPipe {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseProgram() (*Program, *Error) {
	prog := &Program{}
	var curTable *TableDecl
	for {
		if err := p.skipSeparators(); err != nil {
			return nil, err
		}
		if p.cur.Kind == TokenEOF {
			return prog, nil
		}
		if p.cur.Kind != TokenIdent {
			return nil, p.errorf(p.cur.Pos, "expected a stage keyword (SWEEP, SET, RUN, TABLE, COL, NOTE, EMIT), found %s", p.cur.Kind)
		}
		kw := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch kw.Text {
		case "SWEEP":
			if err := p.parseSweep(prog); err != nil {
				return nil, err
			}
		case "SET":
			if err := p.parseSet(prog); err != nil {
				return nil, err
			}
		case "RUN":
			if err := p.parseRun(prog); err != nil {
				return nil, err
			}
		case "TABLE":
			t, err := p.parseTable()
			if err != nil {
				return nil, err
			}
			prog.Tables = append(prog.Tables, t)
			curTable = t
		case "COL":
			col, err := p.parseCol()
			if err != nil {
				return nil, err
			}
			if curTable == nil {
				return nil, p.errorf(kw.Pos, "COL before any TABLE stage")
			}
			curTable.Cols = append(curTable.Cols, *col)
		case "NOTE":
			note, err := p.parseNote()
			if err != nil {
				return nil, err
			}
			if curTable == nil {
				return nil, p.errorf(kw.Pos, "NOTE before any TABLE stage")
			}
			curTable.Notes = append(curTable.Notes, *note)
		case "EMIT":
			sinks, err := p.parseEmit()
			if err != nil {
				return nil, err
			}
			if curTable != nil {
				curTable.Sinks = append(curTable.Sinks, sinks...)
			} else {
				prog.LooseSinks = append(prog.LooseSinks, sinks...)
			}
		default:
			if up := strings.ToUpper(kw.Text); up != kw.Text {
				switch up {
				case "SWEEP", "SET", "RUN", "TABLE", "COL", "NOTE", "EMIT":
					return nil, p.errorf(kw.Pos, "unknown stage %q (stage keywords are uppercase: %s)", kw.Text, up)
				}
			}
			return nil, p.errorf(kw.Pos, "unknown stage %q (want SWEEP, SET, RUN, TABLE, COL, NOTE or EMIT)", kw.Text)
		}
		if !p.atStageEnd() {
			return nil, p.errorf(p.cur.Pos, "unexpected %s after %s stage (stages end at '|' or end of line)", p.cur.Kind, kw.Text)
		}
	}
}

// parseScalar parses a literal value: number (optionally negated or
// byte-suffixed), bare identifier or quoted string. context is as for
// expect.
func (p *parser) parseScalar(context ...string) (Scalar, *Error) {
	pos := p.cur.Pos
	neg := false
	if p.cur.Kind == TokenMinus {
		neg = true
		if err := p.advance(); err != nil {
			return Scalar{}, err
		}
	}
	switch p.cur.Kind {
	case TokenNumber:
		s := Scalar{Pos: pos, Num: p.cur.Num, Bytes: p.cur.Bytes}
		if neg {
			s.Num = -s.Num
		}
		return s, p.advance()
	case TokenIdent, TokenString:
		if neg {
			return Scalar{}, p.errorf(pos, "'-' must be followed by a number in %s", strings.Join(context, ""))
		}
		s := Scalar{Pos: pos, IsStr: true, Str: p.cur.Text}
		return s, p.advance()
	case TokenEOF, TokenNewline, TokenPipe, TokenAssign, TokenComma,
		TokenLParen, TokenRParen, TokenLBrace, TokenRBrace, TokenRange,
		TokenColon, TokenPlus, TokenStar, TokenSlash, TokenMinus:
		return Scalar{}, p.errorf(p.cur.Pos, "expected a value in %s, found %s", strings.Join(context, ""), p.cur.Kind)
	default:
		return Scalar{}, p.errorf(p.cur.Pos, "expected a value in %s, found %s", strings.Join(context, ""), p.cur.Kind)
	}
}

// parseValueList parses the right-hand side of a SWEEP axis: either a
// comma-separated list of scalars or a lo..hi:step range.
func (p *parser) parseValueList(axis string) ([]Scalar, *Error) {
	first, err := p.parseScalar("axis ", axis)
	if err != nil {
		return nil, err
	}
	if p.cur.Kind == TokenRange {
		return p.parseRange(axis, first)
	}
	vals := []Scalar{first}
	for p.cur.Kind == TokenComma {
		if err := p.advance(); err != nil {
			return nil, err
		}
		v, err := p.parseScalar("axis ", axis)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// parseRange expands lo..hi:step eagerly into a value list. Points are
// computed as lo + i*step (not by accumulation), so 0..0.10:0.02 yields
// the same floats as writing the list by hand would.
func (p *parser) parseRange(axis string, lo Scalar) ([]Scalar, *Error) {
	rangePos := p.cur.Pos
	if err := p.advance(); err != nil { // consume '..'
		return nil, err
	}
	if lo.IsStr {
		return nil, p.errorf(lo.Pos, "range bounds must be numbers in axis %s", axis)
	}
	hi, err := p.parseScalar("range of axis ", axis)
	if err != nil {
		return nil, err
	}
	if hi.IsStr {
		return nil, p.errorf(hi.Pos, "range bounds must be numbers in axis %s", axis)
	}
	if _, err := p.expect(TokenColon, "range of axis ", axis, " (ranges are lo..hi:step)"); err != nil {
		return nil, err
	}
	step, err := p.parseScalar("range step of axis ", axis)
	if err != nil {
		return nil, err
	}
	if step.IsStr || step.Num <= 0 {
		return nil, p.errorf(step.Pos, "range step must be a positive number in axis %s", axis)
	}
	if hi.Num < lo.Num {
		return nil, p.errorf(rangePos, "empty range %s..%s in axis %s", formatFloat(lo.Num), formatFloat(hi.Num), axis)
	}
	var vals []Scalar
	// The epsilon absorbs the representation error of hi itself (e.g.
	// 0.10 is not exactly representable), not accumulated drift: every
	// point is lo + i*step.
	limit := hi.Num + step.Num*1e-9
	for i := 0; ; i++ {
		v := lo.Num + float64(i)*step.Num
		if v > limit {
			break
		}
		vals = append(vals, Scalar{Pos: lo.Pos, Num: v})
		if len(vals) > maxPoints {
			return nil, p.errorf(rangePos, "range in axis %s expands to more than %d points", axis, maxPoints)
		}
	}
	return vals, nil
}

func (p *parser) parseSweep(prog *Program) *Error {
	declared := false
	for p.cur.Kind == TokenIdent {
		name := p.cur
		if err := p.advance(); err != nil {
			return err
		}
		if name.Text == "fast" && p.cur.Kind == TokenLParen {
			if !declared || len(prog.Axes) == 0 {
				return p.errorf(name.Pos, "fast(...) must follow an axis declaration")
			}
			if err := p.advance(); err != nil { // consume '('
				return err
			}
			vals, err := p.parseValueList(prog.Axes[len(prog.Axes)-1].Name)
			if err != nil {
				return err
			}
			if _, err := p.expect(TokenRParen, "fast(...) alternate values"); err != nil {
				return err
			}
			ax := &prog.Axes[len(prog.Axes)-1]
			if ax.HasFast {
				return p.errorf(name.Pos, "duplicate fast(...) for axis %s", ax.Name)
			}
			ax.Fast = vals
			ax.HasFast = true
			continue
		}
		if _, err := p.expect(TokenAssign, "SWEEP axis ", name.Text); err != nil {
			return err
		}
		vals, err := p.parseValueList(name.Text)
		if err != nil {
			return err
		}
		prog.Axes = append(prog.Axes, AxisDecl{Name: name.Text, Pos: name.Pos, Values: vals})
		declared = true
	}
	if !declared {
		return p.errorf(p.cur.Pos, "SWEEP needs at least one axis (SWEEP name=v1,v2,... or name=lo..hi:step)")
	}
	return nil
}

func (p *parser) parseSet(prog *Program) *Error {
	declared := false
	for p.cur.Kind == TokenIdent {
		name := p.cur
		if err := p.advance(); err != nil {
			return err
		}
		if name.Text == "fast" && p.cur.Kind == TokenLParen {
			if !declared || len(prog.Sets) == 0 {
				return p.errorf(name.Pos, "fast(...) must follow a knob assignment")
			}
			if err := p.advance(); err != nil { // consume '('
				return err
			}
			expr, err := p.parseExpr()
			if err != nil {
				return err
			}
			if _, err := p.expect(TokenRParen, "fast(...) alternate expression"); err != nil {
				return err
			}
			set := &prog.Sets[len(prog.Sets)-1]
			if set.FastExpr != nil {
				return p.errorf(name.Pos, "duplicate fast(...) for knob %s", set.Knob)
			}
			set.FastExpr = expr
			continue
		}
		if _, err := p.expect(TokenAssign, "SET knob ", name.Text); err != nil {
			return err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return err
		}
		prog.Sets = append(prog.Sets, SetDecl{Knob: name.Text, Pos: name.Pos, Expr: expr})
		declared = true
	}
	if !declared {
		return p.errorf(p.cur.Pos, "SET needs at least one knob=expression binding")
	}
	return nil
}

func (p *parser) parseRun(prog *Program) *Error {
	declared := false
	for p.cur.Kind == TokenIdent {
		name := p.cur
		if err := p.advance(); err != nil {
			return err
		}
		if _, err := p.expect(TokenAssign, "RUN option ", name.Text); err != nil {
			return err
		}
		val, err := p.parseScalar("RUN option ", name.Text)
		if err != nil {
			return err
		}
		prog.Runs = append(prog.Runs, RunDecl{Key: name.Text, Pos: name.Pos, Val: val})
		declared = true
	}
	if !declared {
		return p.errorf(p.cur.Pos, "RUN needs at least one option (seed=..., shards=..., mode=...)")
	}
	return nil
}

func (p *parser) parseTable() (*TableDecl, *Error) {
	// IDs with characters outside the identifier set ("ablate-r") are
	// quoted; plain ones ("fig4a") need not be.
	if p.cur.Kind != TokenIdent && p.cur.Kind != TokenString {
		return nil, p.errorf(p.cur.Pos, "expected a table id in TABLE declaration (TABLE <id> title(...) x(...)), found %s", p.cur.Kind)
	}
	id := p.cur
	if err := p.advance(); err != nil {
		return nil, err
	}
	t := &TableDecl{ID: id.Text, Pos: id.Pos}
	seen := map[string]bool{}
	for p.cur.Kind == TokenIdent {
		key := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenLParen, "TABLE property ", key.Text); err != nil {
			return nil, err
		}
		if seen[key.Text] {
			return nil, p.errorf(key.Pos, "duplicate TABLE property %s", key.Text)
		}
		seen[key.Text] = true
		switch key.Text {
		case "title", "xlabel", "ylabel":
			s, err := p.expect(TokenString, "TABLE property ", key.Text)
			if err != nil {
				return nil, err
			}
			switch key.Text {
			case "title":
				t.Title = s.Text
			case "xlabel":
				t.XLabel = s.Text
			default:
				t.YLabel = s.Text
			}
		case "x":
			expr, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			t.XExpr = expr
		default:
			return nil, p.errorf(key.Pos, "unknown TABLE property %q (want title, x, xlabel or ylabel)", key.Text)
		}
		if _, err := p.expect(TokenRParen, "TABLE property ", key.Text); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (p *parser) parseCol() (*ColDecl, *Error) {
	label, err := p.expect(TokenString, "COL stage (COL \"label\" expression)")
	if err != nil {
		return nil, err
	}
	expr, perr := p.parseExpr()
	if perr != nil {
		return nil, perr
	}
	return &ColDecl{Label: label.Text, Pos: label.Pos, Expr: expr}, nil
}

func (p *parser) parseNote() (*NoteDecl, *Error) {
	s, err := p.expect(TokenString, "NOTE stage (NOTE \"text with {expr} interpolation\")")
	if err != nil {
		return nil, err
	}
	note := &NoteDecl{Pos: s.Pos}
	text := s.Text
	for len(text) > 0 {
		open := strings.IndexByte(text, '{')
		if open < 0 {
			note.Parts = append(note.Parts, NotePart{Text: text})
			break
		}
		if open > 0 {
			note.Parts = append(note.Parts, NotePart{Text: text[:open]})
		}
		closeIdx := strings.IndexByte(text[open:], '}')
		if closeIdx < 0 {
			return nil, p.errorf(s.Pos, "unclosed '{' in NOTE interpolation")
		}
		inner := text[open+1 : open+closeIdx]
		expr, perr := parseExprString(p.lx.file, inner, s.Pos)
		if perr != nil {
			return nil, perr
		}
		note.Parts = append(note.Parts, NotePart{Expr: expr})
		text = text[open+closeIdx+1:]
	}
	return note, nil
}

func (p *parser) parseEmit() ([]SinkDecl, *Error) {
	var sinks []SinkDecl
	for p.cur.Kind == TokenIdent {
		name := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.Kind != TokenLParen {
			return nil, p.errorf(p.cur.Pos, "expected '(' after sink %s (EMIT csv(path) summary(stdout))", name.Text)
		}
		// The argument is raw text up to ')': paths need no quoting.
		arg, err := p.lx.rawUntil(p.cur.Pos)
		if err != nil {
			return nil, err
		}
		if err := p.advance(); err != nil { // lexes the ')'
			return nil, err
		}
		if _, err := p.expect(TokenRParen, "sink ", name.Text); err != nil {
			return nil, err
		}
		sinks = append(sinks, SinkDecl{Name: name.Text, Pos: name.Pos, Arg: arg})
	}
	if len(sinks) == 0 {
		return nil, p.errorf(p.cur.Pos, "EMIT needs at least one sink (csv(path), summary(stdout))")
	}
	return sinks, nil
}

// parseExprString compiles a standalone expression (NOTE interpolation).
// Errors are re-anchored at basePos: the interpolation lives inside a
// string literal, so inner offsets would mislead.
func parseExprString(file, src string, basePos Pos) (*Expr, *Error) {
	p := &parser{lx: newLexer(file, src)}
	if err := p.advance(); err != nil {
		err.Pos = basePos
		return nil, err
	}
	expr, perr := p.parseExpr()
	if perr != nil {
		perr.Pos = basePos
		return nil, perr
	}
	if p.cur.Kind != TokenEOF {
		return nil, &Error{File: file, Pos: basePos, Msg: fmt.Sprintf("unexpected %s in NOTE interpolation", p.cur.Kind)}
	}
	reanchor(expr, basePos)
	return expr, nil
}

func reanchor(e *Expr, pos Pos) {
	if e == nil {
		return
	}
	e.Pos = pos
	reanchor(e.X, pos)
	reanchor(e.Y, pos)
	for _, a := range e.Args {
		reanchor(a, pos)
	}
	for i := range e.Sel {
		e.Sel[i].Pos = pos
	}
}

// parseExpr parses additive expressions (lowest precedence).
func (p *parser) parseExpr() (*Expr, *Error) {
	x, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokenPlus || p.cur.Kind == TokenMinus {
		op := OpAdd
		if p.cur.Kind == TokenMinus {
			op = OpSub
		}
		pos := p.cur.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		x = &Expr{Kind: ExprOp, Pos: pos, Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseTerm() (*Expr, *Error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokenStar || p.cur.Kind == TokenSlash {
		op := OpMul
		if p.cur.Kind == TokenSlash {
			op = OpDiv
		}
		pos := p.cur.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Expr{Kind: ExprOp, Pos: pos, Op: op, X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (*Expr, *Error) {
	if p.cur.Kind == TokenMinus {
		pos := p.cur.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprOp, Pos: pos, Op: OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (*Expr, *Error) {
	switch p.cur.Kind {
	case TokenNumber:
		e := &Expr{Kind: ExprNum, Pos: p.cur.Pos, Num: p.cur.Num, Bytes: p.cur.Bytes}
		return e, p.advance()
	case TokenString:
		e := &Expr{Kind: ExprStr, Pos: p.cur.Pos, Str: p.cur.Text}
		return e, p.advance()
	case TokenLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenRParen, "parenthesised expression"); err != nil {
			return nil, err
		}
		return x, nil
	case TokenIdent:
		name := p.cur
		if err := p.advance(); err != nil {
			return nil, err
		}
		e := &Expr{Kind: ExprVar, Pos: name.Pos, Name: name.Text}
		if p.cur.Kind == TokenLParen {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e.Kind = ExprCall
			if p.cur.Kind != TokenRParen {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					e.Args = append(e.Args, arg)
					if p.cur.Kind != TokenComma {
						break
					}
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(TokenRParen, "call of ", name.Text); err != nil {
				return nil, err
			}
		}
		if p.cur.Kind == TokenLBrace {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e.Kind = ExprCall
			for {
				key, err := p.expect(TokenIdent, "selector of ", name.Text)
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(TokenAssign, "selector of ", name.Text); err != nil {
					return nil, err
				}
				val, serr := p.parseScalar("selector of ", name.Text)
				if serr != nil {
					return nil, serr
				}
				e.Sel = append(e.Sel, SelItem{Key: key.Text, Pos: key.Pos, Val: val})
				if p.cur.Kind != TokenComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(TokenRBrace, "selector of ", name.Text); err != nil {
				return nil, err
			}
		}
		return e, nil
	case TokenEOF, TokenNewline, TokenPipe, TokenAssign, TokenComma,
		TokenRParen, TokenLBrace, TokenRBrace, TokenRange, TokenColon,
		TokenPlus, TokenMinus, TokenStar, TokenSlash:
		return nil, p.errorf(p.cur.Pos, "expected an expression, found %s", p.cur.Kind)
	default:
		return nil, p.errorf(p.cur.Pos, "expected an expression, found %s", p.cur.Kind)
	}
}
