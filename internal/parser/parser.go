package parser

import "strings"

// MaxTermDepth caps the depth of one term: nested applications, the value
// of a numeric literal in a functional position and +n sugar, combined. The
// parser loops over the nesting of a functional term and recurses only into
// non-functional arguments, never past this many open applications, so no
// input can exhaust the stack; a deeper term is a ParseError.
const MaxTermDepth = 1 << 16

// MaxTermCount caps the applications one term of a ground query counts when
// ReadGround lowers it: nesting, numerals and +n sugar summed. The nesting is
// still capped by MaxTermDepth, but a numeral and +n sugar are counted, not
// held, so a ground ask may name any time up to 2^62. Everything the tree
// parser builds — facts, rules, open queries, a ground query asked through
// Explain or congruence closure — keeps MaxTermDepth for the whole term.
const MaxTermCount = 1 << 62

// maxNumber is the largest number the lexer reads as a value; past it the
// tree parser reports the number too large.
const maxNumber = 1 << 30

func (p *parser) errTooDeep(off int) error {
	return p.errAt(off, "term deeper than %d applications (nesting, numeric literal and +n combined)", MaxTermDepth)
}

// Raw syntax trees, produced before predicate functionality is known. They
// live in the parser's slabs, refer to each other by index and to the source
// by offset, and hold no pointer: storing a node costs no write barrier, and
// the collector never scans a slab. A parse allocates its slabs, not its
// nodes.

type rawKind uint8

const (
	rVar rawKind = iota
	rConst
	rNum
)

// rawTerm is a base (variable, constant or number) under a chain of
// applications: f(g(X+1, a), b)+2 is base X with plus 1 under apps g then f.
// Nesting runs through first arguments only, so the chain is a run of the
// apps slab, written outermost first as the "name(" prefixes are read, and a
// depth-n term costs O(n) to parse and to build.
type rawTerm struct {
	off    int   // of the base token: a name or a number
	n      int32 // the token's length
	plus   int32 // +n sugar directly on the base
	lo, hi int32 // its applications: p.apps[lo:hi], outermost first
	next   int32 // the next argument of the same list in p.terms; -1 after the last
	kind   rawKind
}

// rawApp is one application layer of a rawTerm; its first argument is the
// layer beneath it.
type rawApp struct {
	off   int   // of the function symbol's name
	n     int32 // the name's length
	plus  int32 // +n sugar after the closing parenthesis
	args  int32 // the first argument after the first in p.terms; -1 for none
	nargs int32
}

// name returns the identifier of n bytes at offset off.
func (p *parser) name(off int, n int32) string { return p.src[off : off+int(n)] }

// number returns the value of an rNum term, read again from its digits (the
// lexer has checked they stay under 2^30).
func (p *parser) number(t *rawTerm) int32 {
	var v int32
	for _, c := range []byte(p.name(t.off, t.n)) {
		v = v*10 + int32(c-'0')
	}
	return v
}

// termPos returns the offset of the term's first token.
func (p *parser) termPos(t *rawTerm) int {
	if t.lo < t.hi {
		return p.apps[t.lo].off
	}
	return t.off
}

// outerPlus returns the +n sugar applied to the whole term.
func (p *parser) outerPlus(t *rawTerm) int32 {
	if t.lo < t.hi {
		return p.apps[t.lo].plus
	}
	return t.plus
}

// bareVar reports whether the term is a variable and nothing else.
func (t *rawTerm) bareVar() bool { return t.kind == rVar && t.plus == 0 && t.lo == t.hi }

type rawAtom struct {
	off   int   // of the predicate's name
	n     int32 // the name's length
	args  int32 // the first argument in p.terms; -1 for none
	nargs int32
}

// rawClause is a rule, a fact or a query over a run of the atoms slab.
type rawClause struct {
	head   int32 // index in p.atoms; -1 for a query
	lo, hi int32 // the body: p.atoms[lo:hi]
	isRule bool
	off    int
}

type rawDirective struct {
	kind  string // "functional" or "data"
	pred  string
	arity int // total argument count, paper-style
	off   int
}

type parser struct {
	src  string
	pos  int // where the lexer continues
	tok  token
	open int // applications whose ')' is still ahead

	// longNumbers lexes a number past maxNumber as maxNumber+1, where the
	// tree parser reports it: the ground reader counts it from its digits.
	longNumbers bool

	// The slabs of the raw tree.
	apps       []rawApp
	terms      []rawTerm
	atoms      []rawAtom
	clauses    []rawClause
	queries    []rawClause
	directives []rawDirective
	order      []int32 // atoms in the order inference visits them
}

// newParser returns a parser positioned on the first token of src. The two
// slabs a deep term fills are sized from src once: every application opens
// a parenthesis, and every term but an atom's first argument follows a
// comma, so a query of a few atoms, however deep, grows neither.
func newParser(src string) (*parser, error) {
	p := &parser{
		src:   src,
		apps:  make([]rawApp, 0, strings.Count(src, "(")),
		terms: make([]rawTerm, 0, strings.Count(src, ",")+4),
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errAt(p.tok.off, "expected %s, found %s", k, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

// skip is expect for a token whose value nobody reads.
func (p *parser) skip(k tokKind) error {
	if p.tok.kind != k {
		return p.errAt(p.tok.off, "expected %s, found %s", k, p.tok.kind)
	}
	return p.advance()
}

func (p *parser) parseProgram() error {
	for p.tok.kind != tokEOF {
		switch p.tok.kind {
		case tokAt:
			d, err := p.parseDirective()
			if err != nil {
				return err
			}
			p.directives = append(p.directives, d)
		case tokQuery:
			q, err := p.parseQuery()
			if err != nil {
				return err
			}
			p.queries = append(p.queries, q)
		default:
			c, err := p.parseClause()
			if err != nil {
				return err
			}
			p.clauses = append(p.clauses, c)
		}
	}
	return nil
}

func (p *parser) parseDirective() (rawDirective, error) {
	off := p.tok.off
	if err := p.skip(tokAt); err != nil {
		return rawDirective{}, err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return rawDirective{}, err
	}
	kind := p.name(kw.off, kw.n)
	if kind != "functional" && kind != "data" {
		return rawDirective{}, p.errAt(kw.off, "unknown directive @%s (want @functional or @data)", kind)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return rawDirective{}, err
	}
	if err := p.skip(tokSlash); err != nil {
		return rawDirective{}, err
	}
	ar, err := p.expect(tokNumber)
	if err != nil {
		return rawDirective{}, err
	}
	if err := p.skip(tokDot); err != nil {
		return rawDirective{}, err
	}
	return rawDirective{kind: kind, pred: p.name(name.off, name.n), arity: ar.num, off: off}, nil
}

func (p *parser) parseQuery() (rawClause, error) {
	off := p.tok.off
	if err := p.skip(tokQuery); err != nil {
		return rawClause{}, err
	}
	lo, hi, err := p.parseAtomList()
	if err != nil {
		return rawClause{}, err
	}
	if err := p.skip(tokDot); err != nil {
		return rawClause{}, err
	}
	return rawClause{head: -1, lo: lo, hi: hi, off: off}, nil
}

// parseClause parses either "B1, ..., Bn -> H." (a rule), "H <- B1, ..., Bn."
// (the same rule head-first), or "F." (a fact).
func (p *parser) parseClause() (rawClause, error) {
	off := p.tok.off
	lo, hi, err := p.parseAtomList()
	if err != nil {
		return rawClause{}, err
	}
	switch p.tok.kind {
	case tokArrow:
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		if err := p.parseAtom(); err != nil {
			return rawClause{}, err
		}
		if err := p.skip(tokDot); err != nil {
			return rawClause{}, err
		}
		return rawClause{head: hi, lo: lo, hi: hi, isRule: true, off: off}, nil
	case tokLArrow:
		if hi-lo != 1 {
			return rawClause{}, p.errLine(off, "a '<-' rule must have exactly one head atom")
		}
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		blo, bhi, err := p.parseAtomList()
		if err != nil {
			return rawClause{}, err
		}
		if err := p.skip(tokDot); err != nil {
			return rawClause{}, err
		}
		return rawClause{head: lo, lo: blo, hi: bhi, isRule: true, off: off}, nil
	case tokDot:
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		if hi-lo != 1 {
			return rawClause{}, p.errLine(off, "a fact must be a single atom")
		}
		return rawClause{head: lo, lo: hi, hi: hi, off: off}, nil
	}
	return rawClause{}, p.errAt(p.tok.off, "expected '->', '<-' or '.', found %s", p.tok.kind)
}

// parseAtomList parses comma-separated atoms into p.atoms[lo:hi].
func (p *parser) parseAtomList() (lo, hi int32, err error) {
	lo = int32(len(p.atoms))
	for {
		if err := p.parseAtom(); err != nil {
			return 0, 0, err
		}
		if p.tok.kind != tokComma {
			return lo, int32(len(p.atoms)), nil
		}
		if err := p.advance(); err != nil {
			return 0, 0, err
		}
	}
}

// parseAtom parses one atom onto p.atoms. Its arguments' own subterms may
// land in the slabs first, but no atom does: an atom list is one run.
func (p *parser) parseAtom() error {
	name, err := p.expect(tokIdent)
	if err != nil {
		return err
	}
	a := rawAtom{off: name.off, n: name.n, args: -1}
	if p.tok.kind == tokLParen {
		if err := p.advance(); err != nil {
			return err
		}
		if a.args, a.nargs, err = p.parseArgs(); err != nil {
			return err
		}
		if err := p.skip(tokRParen); err != nil {
			return err
		}
	}
	p.atoms = append(p.atoms, a)
	return nil
}

// parseArgs parses a comma-separated list of terms onto p.terms, each
// linked to the next, and returns the first one's index and their count.
func (p *parser) parseArgs() (first, n int32, err error) {
	first, last := int32(-1), int32(-1)
	for {
		i := p.newTerm()
		if err := p.parseTerm(i); err != nil {
			return 0, 0, err
		}
		p.link(&first, &last, i)
		n++
		if p.tok.kind != tokComma {
			return first, n, nil
		}
		if err := p.advance(); err != nil {
			return 0, 0, err
		}
	}
}

// newTerm makes room for one term on p.terms.
func (p *parser) newTerm() int32 {
	p.terms = append(p.terms, rawTerm{})
	return int32(len(p.terms) - 1)
}

// link puts term i at the end of the list running from *first to *last.
func (p *parser) link(first, last *int32, i int32) {
	if *last < 0 {
		*first = i
	} else {
		p.terms[*last].next = i
	}
	*last = i
}

// parsePlus reads a run of +n sugar and returns its sum. The sum saturates
// just past MaxTermDepth (the builder rejects such a term), so it cannot
// overflow.
func (p *parser) parsePlus() (int32, error) {
	var plus int32
	for p.tok.kind == tokPlus {
		if err := p.advance(); err != nil {
			return 0, err
		}
		n, err := p.expect(tokNumber)
		if err != nil {
			return 0, err
		}
		if plus <= MaxTermDepth {
			plus += int32(n.num)
		}
	}
	return plus, nil
}

// isVarStart reports whether an identifier starting with c is a variable.
func isVarStart(c byte) bool { return c == '_' || (c >= 'A' && c <= 'Z') }

// parseTerm parses base, applications and +n sugar into p.terms[i]. The
// "name(" prefixes of a nested term are consumed by a loop, outermost first,
// each one written to the apps slab; then the applications are closed
// innermost first, and only an argument after the first recurses.
func (p *parser) parseTerm(i int32) error {
	// The term is kept in locals and written field by field into its slot:
	// a struct built on the stack and copied whole stalls the store buffer.
	var (
		kind    rawKind
		n       int32
		off     int
		lo      = int32(len(p.apps))
		plus    int32
		baseErr error
	)
	for {
		tk := p.tok.kind
		off = p.tok.off
		switch tk {
		case tokNumber:
			kind, n = rNum, p.tok.n
		case tokIdent:
			kind, n = rConst, p.tok.n
			if isVarStart(p.src[off]) {
				kind = rVar
			}
		default:
			return p.errAt(off, "expected a term, found %s", tk)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if tk != tokIdent || p.tok.kind != tokLParen {
			break // tok was the base
		}
		// The identifier names an application; its first argument comes next.
		if p.open++; p.open > MaxTermDepth {
			return p.errTooDeep(off)
		}
		if err := p.advance(); err != nil {
			return err
		}
		p.apps = append(p.apps, rawApp{})
		app := &p.apps[len(p.apps)-1]
		app.off, app.n, app.args = off, n, -1
	}
	hi := int32(len(p.apps))
	if p.tok.kind == tokPlus {
		plus, baseErr = p.parsePlus()
	}
	t := &p.terms[i]
	t.off, t.n, t.plus, t.lo, t.hi, t.next, t.kind = off, n, plus, lo, hi, -1, kind
	if baseErr != nil {
		return baseErr
	}
	for j := hi - 1; j >= lo; j-- {
		first, last, count := int32(-1), int32(-1), int32(0)
		for p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			k := p.newTerm()
			if err := p.parseTerm(k); err != nil {
				return err
			}
			p.link(&first, &last, k)
			count++
		}
		if err := p.skip(tokRParen); err != nil {
			return err
		}
		p.open--
		var plus int32
		if p.tok.kind == tokPlus {
			var err error
			if plus, err = p.parsePlus(); err != nil {
				return err
			}
		}
		app := &p.apps[j] // the slab may have grown under the arguments
		app.args, app.nargs, app.plus = first, count, plus
	}
	return nil
}
