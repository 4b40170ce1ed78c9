// Package parser implements the surface syntax of funcdb programs.
//
// The syntax follows the paper's notation with Prolog-style variable
// conventions:
//
//	% the advisor-meetings example from section 1
//	Meets(0, tony).
//	Next(tony, jan).
//	Meets(T, X), Next(X, Y) -> Meets(T+1, Y).
//	?- Meets(T, X).
//
// Identifiers beginning with an upper-case letter or underscore are
// variables; lower-case identifiers are constants (in argument positions)
// or function symbols (when applied); the functor of an atom is a predicate
// regardless of case. Non-negative integers in functional positions denote
// succ-chains over the functional constant 0, and T+n is sugar for n
// applications of succ to T. Whether a predicate's first argument is
// functional is inferred from the program (any function application or +n
// term in first position forces it, and the property propagates through
// shared variables); the directives "@functional P/k." and "@data P/k."
// (k the total argument count) override the inference.
package parser

import "unicode"

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokArrow  // ->
	tokPlus   // +
	tokQuery  // ?-
	tokAt     // @
	tokSlash  // /
	tokLArrow // <- (alternative rule syntax: H <- B.)
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokDot:
		return "'.'"
	case tokArrow:
		return "'->'"
	case tokPlus:
		return "'+'"
	case tokQuery:
		return "'?-'"
	case tokAt:
		return "'@'"
	case tokSlash:
		return "'/'"
	case tokLArrow:
		return "'<-'"
	}
	return "unknown token"
}

type token struct {
	kind tokKind
	text string
	num  int
	line int
	col  int
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skip moves to byte offset end over bytes known to hold no newline.
func (l *lexer) skip(end int) {
	l.col += end - l.pos
	l.pos = end
}

func (l *lexer) skipSpaceAndComments() {
	for {
		c, ok := l.peekByte()
		if !ok {
			return
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		default:
			return
		}
	}
}

// Byte classes of identifier characters, tabulated once from the unicode
// predicates the lexer has always applied to single bytes (so the Latin-1
// letters above 0x7f keep lexing as they did) and indexed per byte since.
const (
	identStart = 1 << iota
	identPart
)

// punct maps each single-character token to its kind.
var punct = [256]tokKind{'(': tokLParen, ')': tokRParen, ',': tokComma, '.': tokDot, '+': tokPlus, '@': tokAt, '/': tokSlash}

var identClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		if c == '_' || unicode.IsLetter(rune(c)) {
			t[c] = identStart | identPart
		} else if c == '\'' || unicode.IsDigit(rune(c)) {
			t[c] = identPart
		}
	}
	return t
}()

func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	if k := punct[c]; k != tokEOF {
		l.advance()
		return token{kind: k, line: line, col: col}, nil
	}
	switch {
	case c == '-':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '>' {
			l.advance()
			return token{kind: tokArrow, line: line, col: col}, nil
		}
		return token{}, perrf(line, col, "unexpected '-'")
	case c == '<':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '-' {
			l.advance()
			return token{kind: tokLArrow, line: line, col: col}, nil
		}
		return token{}, perrf(line, col, "unexpected '<'")
	case c == '?':
		l.advance()
		if c2, ok := l.peekByte(); ok && c2 == '-' {
			l.advance()
			return token{kind: tokQuery, line: line, col: col}, nil
		}
		return token{}, perrf(line, col, "unexpected '?'")
	case c >= '0' && c <= '9':
		n, end := 0, l.pos
		for ; end < len(l.src) && l.src[end] >= '0' && l.src[end] <= '9'; end++ {
			n = n*10 + int(l.src[end]-'0')
			if n > 1<<30 {
				return token{}, perrf(line, col, "number too large")
			}
		}
		l.skip(end)
		return token{kind: tokNumber, num: n, line: line, col: col}, nil
	case identClass[c]&identStart != 0:
		// The token's text is a substring of src: no copy per identifier.
		start, end := l.pos, l.pos+1
		for end < len(l.src) && identClass[l.src[end]]&identPart != 0 {
			end++
		}
		l.skip(end)
		return token{kind: tokIdent, text: l.src[start:end], line: line, col: col}, nil
	}
	return token{}, perrf(line, col, "unexpected character %q", c)
}
