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

import (
	"strings"
	"unicode"
)

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

// token is the current token of a parse. off is the byte offset of its
// first byte: positions are offsets, and a line and column are computed from
// one only when an error is built. An identifier is src[off:off+n], so
// lexing one writes no pointer.
type token struct {
	kind tokKind
	n    int32 // tokIdent, tokNumber: the token's length
	num  int   // tokNumber: its value, or maxNumber+1 past maxNumber
	off  int
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

// advance lexes the next token into p.tok: whitespace and % comments are
// skipped a byte at a time, with no line or column kept.
func (p *parser) advance() error {
	src, i := p.src, p.pos
	for i < len(src) {
		switch c := src[i]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
			continue
		case c == '%':
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(src)
			}
			continue
		}
		break
	}
	p.tok.off = i
	if i == len(src) {
		p.tok.kind, p.pos = tokEOF, i
		return nil
	}
	c := src[i]
	if k := punct[c]; k != tokEOF {
		p.tok.kind, p.pos = k, i+1
		return nil
	}
	switch {
	case c == '-' || c == '<' || c == '?':
		second, kind := byte('-'), tokLArrow
		switch c {
		case '-':
			second, kind = '>', tokArrow
		case '?':
			kind = tokQuery
		}
		if i+1 < len(src) && src[i+1] == second {
			p.tok.kind, p.pos = kind, i+2
			return nil
		}
		return p.errAt(i, "unexpected %q", c)
	case c >= '0' && c <= '9':
		n, end := 0, i
		for ; end < len(src) && src[end] >= '0' && src[end] <= '9'; end++ {
			if n <= maxNumber {
				n = n*10 + int(src[end]-'0')
			}
		}
		if n > maxNumber {
			if !p.longNumbers {
				return p.errAt(i, "number too large")
			}
			n = maxNumber + 1
		}
		p.tok.kind, p.tok.num, p.tok.n, p.pos = tokNumber, n, int32(end-i), end
		return nil
	case identClass[c]&identStart != 0:
		end := i + 1
		for end < len(src) && identClass[src[end]]&identPart != 0 {
			end++
		}
		p.tok.kind, p.tok.n, p.pos = tokIdent, int32(end-i), end
		return nil
	}
	return p.errAt(i, "unexpected character %q", c)
}
