package airql

import (
	"fmt"
	"strconv"
	"strings"
)

// lexer scans an airql script. It is line-oriented: newlines are tokens
// (stage separators), '#' starts a comment that runs to end of line,
// and the parser can ask for a raw argument scan (rawUntil) so sink
// arguments like csv(results/fig4a.csv) need no quoting.
type lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) errorf(p Pos, format string, args ...any) *Error {
	return &Error{File: l.file, Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// advance consumes one byte, maintaining the line/column counters.
func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skip consumes n bytes that hold no newline (n < 0: the rest of the
// source), in one step rather than byte by byte.
func (l *lexer) skip(n int) {
	if n < 0 {
		n = len(l.src) - l.off
	}
	l.off += n
	l.col += n
}

func (l *lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' }
func isIdent(c byte) bool  { return isLetter(c) || isDigit(c) || c == '.' }

// lexesAsIdent reports whether s lexes as one identifier token.
func lexesAsIdent(s string) bool {
	tok, err := newLexer("", s).next()
	return err == nil && tok.Kind == TokenIdent && tok.Text == s
}

// next returns the next token. Lexical errors are returned, never
// panicked: the fuzz target runs arbitrary bytes through the compiler.
func (l *lexer) next() (Token, *Error) {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case isSpace(c):
			l.advance()
			continue
		case c == '#':
			l.skip(strings.IndexByte(l.src[l.off:], '\n'))
			continue
		}
		break
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokenEOF, Pos: p}, nil
	}
	c := l.peek()
	switch {
	case c == '\n':
		l.advance()
		return Token{Kind: TokenNewline, Pos: p}, nil
	case c == '|':
		l.advance()
		return Token{Kind: TokenPipe, Pos: p}, nil
	case c == '=':
		l.advance()
		return Token{Kind: TokenAssign, Pos: p}, nil
	case c == ',':
		l.advance()
		return Token{Kind: TokenComma, Pos: p}, nil
	case c == '(':
		l.advance()
		return Token{Kind: TokenLParen, Pos: p}, nil
	case c == ')':
		l.advance()
		return Token{Kind: TokenRParen, Pos: p}, nil
	case c == '{':
		l.advance()
		return Token{Kind: TokenLBrace, Pos: p}, nil
	case c == '}':
		l.advance()
		return Token{Kind: TokenRBrace, Pos: p}, nil
	case c == ':':
		l.advance()
		return Token{Kind: TokenColon, Pos: p}, nil
	case c == '+':
		l.advance()
		return Token{Kind: TokenPlus, Pos: p}, nil
	case c == '-':
		l.advance()
		return Token{Kind: TokenMinus, Pos: p}, nil
	case c == '*':
		l.advance()
		return Token{Kind: TokenStar, Pos: p}, nil
	case c == '/':
		l.advance()
		return Token{Kind: TokenSlash, Pos: p}, nil
	case c == '.':
		// '..' is the range operator; a lone '.' is not a token start
		// (idents may contain dots only after a letter).
		if l.peek2() == '.' {
			l.advance()
			l.advance()
			return Token{Kind: TokenRange, Pos: p}, nil
		}
		return Token{}, l.errorf(p, "unexpected character '.'")
	case c == '"':
		return l.lexString(p)
	case isDigit(c):
		return l.lexNumber(p)
	case isLetter(c):
		start, end := l.off, l.off
		for end < len(l.src) && isIdent(l.src[end]) {
			// Stop before '..' so ranges over identifiers fail in the
			// parser with a clear message rather than gluing the range
			// operator into the name.
			if l.src[end] == '.' && end+1 < len(l.src) && l.src[end+1] == '.' {
				break
			}
			end++
		}
		l.skip(end - start)
		return Token{Kind: TokenIdent, Pos: p, Text: l.src[start:end]}, nil
	default:
		return Token{}, l.errorf(p, "unexpected character %q", string(rune(c)))
	}
}

func (l *lexer) lexString(p Pos) (Token, *Error) {
	l.advance() // opening quote
	n := strings.IndexByte(l.src[l.off:], '"')
	if n < 0 || strings.IndexByte(l.src[l.off:l.off+n], '\n') >= 0 {
		return Token{}, l.errorf(p, "unterminated string")
	}
	text := l.src[l.off : l.off+n]
	l.skip(n + 1) // text and closing quote
	return Token{Kind: TokenString, Pos: p, Text: text}, nil
}

// byteUnits maps the accepted unit suffixes to their multipliers. Only
// byte quantities have units in this language; the validator uses the
// Bytes flag to reject unit mismatches.
var byteUnits = []struct {
	name string
	mult float64
}{
	{"B", 1},
	{"KiB", 1024},
	{"MiB", 1 << 20},
	{"GiB", 1 << 30},
}

func (l *lexer) lexNumber(p Pos) (Token, *Error) {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	// A '.' continues the number only when it is not the range operator
	// and is followed by a digit (so "0..0.10" lexes as 0 .. 0.10).
	if l.peek() == '.' && l.peek2() != '.' && isDigit(l.peek2()) {
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	text := l.src[start:l.off]
	num, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Token{}, l.errorf(p, "bad number %q", text)
	}
	// An attached letter run is a unit suffix; anything unrecognised is
	// an error here rather than a confusing parse downstream.
	if isLetter(l.peek()) {
		ustart := l.off
		for l.off < len(l.src) && isLetter(l.peek()) {
			l.advance()
		}
		unit := l.src[ustart:l.off]
		for _, u := range byteUnits {
			if u.name == unit {
				return Token{Kind: TokenNumber, Pos: p, Num: num * u.mult, Bytes: true}, nil
			}
		}
		return Token{}, l.errorf(p, "unknown unit %q (byte units are B, KiB, MiB, GiB)", unit)
	}
	return Token{Kind: TokenNumber, Pos: p, Num: num, Bytes: false}, nil
}

// rawUntil scans raw text up to (not including) the next ')' on the
// current line, for sink arguments like csv(results/fig4a.csv). The
// parser calls it instead of next() immediately after the sink's '('.
func (l *lexer) rawUntil(p Pos) (string, *Error) {
	start := l.off
	for l.off < len(l.src) {
		c := l.peek()
		if c == ')' {
			return strings.TrimSpace(l.src[start:l.off]), nil
		}
		if c == '\n' {
			return "", l.errorf(p, "sink argument runs past end of line (missing ')')")
		}
		l.advance()
	}
	return "", l.errorf(p, "sink argument runs past end of script (missing ')')")
}
