// Package airql implements the scenario DSL that regenerates every
// experiment family from scripts (scenarios/*.airql): a line-oriented
// pipeline language in the spirit of task runners like machbase-neo's
// tql, compiled in three phases.
//
//   - The lexer/parser (lexer.go, parser.go) turn a script into a
//     positioned AST. Stages are separated by newlines or '|', so
//     "SWEEP ... | RUN ... | EMIT csv(...)" and the stage-per-line form
//     are the same program.
//   - The validator (knobs.go, validate.go) type-checks every knob
//     against the real core.Config / Options surface: unknown keys,
//     unit mismatches, out-of-range values and scheme-incompatible
//     knobs are compile errors carrying file:line:col positions.
//   - The executor (exec.go, parallel.go) lowers a compiled program
//     onto the existing engines with the same deterministic
//     (seed, shards) contract and parallel round scheduling the
//     experiment harness always had: each point's core.Config is built
//     from the axis bindings, every run is seeded by its own config,
//     and the tables are a pure function of (script, profile, seed,
//     shards) regardless of scheduling.
//
// The grammar EBNF, the knob/type table, and the determinism contract
// for scripted runs are documented in DESIGN.md §11.
package airql

import "fmt"

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// Error is one compile diagnostic. Every error the compiler produces —
// lexer, parser or validator — carries a position; the fuzz target
// enforces exactly that.
type Error struct {
	File string
	Pos  Pos
	Msg  string
}

func (e *Error) Error() string {
	if e.Pos.Line == 0 {
		return fmt.Sprintf("%s: %s", e.File, e.Msg)
	}
	return fmt.Sprintf("%s:%d:%d: %s", e.File, e.Pos.Line, e.Pos.Col, e.Msg)
}

// ErrorList is the validator's collected diagnostics, in source order.
type ErrorList []*Error

// unique drops repeated diagnostics, keeping the first of each.
func (l ErrorList) unique() ErrorList {
	seen := make(map[Error]bool, len(l))
	out := l[:0]
	for _, e := range l {
		if !seen[*e] {
			seen[*e] = true
			out = append(out, e)
		}
	}
	return out
}

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "airql: no errors"
	case 1:
		return l[0].Error()
	case 2:
		return l[0].Error() + " (and 1 more error)"
	default:
		return fmt.Sprintf("%s (and %d more errors)", l[0].Error(), len(l)-1)
	}
}

// TokenKind identifies a lexical token. It is a closed enum: the airlint
// exhaustive analyzer requires every switch over it to cover all
// constants or carry a default.
type TokenKind uint8

const (
	// TokenEOF ends the token stream.
	TokenEOF TokenKind = iota
	// TokenNewline separates stages (the line-oriented form).
	TokenNewline
	// TokenPipe ('|') separates stages (the one-line pipeline form).
	TokenPipe
	// TokenIdent is a bare word: stage keywords, knob and axis names
	// (dots allowed, so dist.r is one token), metric names.
	TokenIdent
	// TokenNumber is a numeric literal, with an optional byte-unit
	// suffix (B, KiB, MiB, GiB) recorded in Token.Bytes.
	TokenNumber
	// TokenString is a double-quoted string literal.
	TokenString
	// TokenAssign is '='.
	TokenAssign
	// TokenComma is ','.
	TokenComma
	// TokenLParen and TokenRParen are '(' and ')'.
	TokenLParen
	TokenRParen
	// TokenLBrace and TokenRBrace are '{' and '}' (metric selectors).
	TokenLBrace
	TokenRBrace
	// TokenRange is '..' (sweep ranges: lo..hi:step).
	TokenRange
	// TokenColon is ':' (the step separator of a range).
	TokenColon
	// TokenPlus, TokenMinus, TokenStar, TokenSlash are the arithmetic
	// operators of knob and column expressions.
	TokenPlus
	TokenMinus
	TokenStar
	TokenSlash
)

// String names the kind for diagnostics.
func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "end of script"
	case TokenNewline:
		return "end of line"
	case TokenPipe:
		return "'|'"
	case TokenIdent:
		return "identifier"
	case TokenNumber:
		return "number"
	case TokenString:
		return "string"
	case TokenAssign:
		return "'='"
	case TokenComma:
		return "','"
	case TokenLParen:
		return "'('"
	case TokenRParen:
		return "')'"
	case TokenLBrace:
		return "'{'"
	case TokenRBrace:
		return "'}'"
	case TokenRange:
		return "'..'"
	case TokenColon:
		return "':'"
	case TokenPlus:
		return "'+'"
	case TokenMinus:
		return "'-'"
	case TokenStar:
		return "'*'"
	case TokenSlash:
		return "'/'"
	default:
		return fmt.Sprintf("token(%d)", uint8(k))
	}
}

// Token is one lexical token.
type Token struct {
	Kind TokenKind
	Pos  Pos
	// Text holds the identifier name or string content.
	Text string
	// Num holds the numeric value, with any byte-unit multiplier
	// already applied.
	Num float64
	// Bytes records that the number carried a byte-unit suffix; the
	// validator rejects byte quantities assigned to dimensionless knobs
	// (and that is the only way a unit enters a script).
	Bytes bool
}
