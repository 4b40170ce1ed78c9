package parser

// MaxTermDepth caps the depth of one term: nested applications, the value
// of a numeric literal in a functional position and +n sugar, combined. The
// parser loops over the nesting of a functional term and recurses only into
// non-functional arguments, never past this many open applications, so no
// input can exhaust the stack; a deeper term is a ParseError.
const MaxTermDepth = 1 << 16

func errTooDeep(line, col int) error {
	return perrf(line, col, "term deeper than %d applications (nesting, numeric literal and +n combined)", MaxTermDepth)
}

// Raw syntax trees, produced before predicate functionality is known.

type rawKind int

const (
	rVar rawKind = iota
	rConst
	rNum
)

// rawTerm is a base (variable, constant or number) under a chain of
// applications: f(g(X+1, a), b)+2 is base X with plus 1 under apps g then f.
// Nesting runs through first arguments only, so the chain is a slice and a
// depth-n term costs O(n) to parse and to build.
type rawTerm struct {
	kind rawKind // of the base
	name string  // rVar, rConst
	num  int     // rNum
	plus int     // +n sugar directly on the base
	// apps are the applications around the base, innermost first.
	apps []rawApp
	line int // of the base token
	col  int
}

// rawApp is one application layer of a rawTerm; its first argument is the
// layer beneath it.
type rawApp struct {
	name string
	args []rawTerm // the arguments after the first
	plus int       // +n sugar after the closing parenthesis
	line int
	col  int
}

// pos returns the position of the term's first token.
func (t *rawTerm) pos() (line, col int) {
	if n := len(t.apps); n > 0 {
		return t.apps[n-1].line, t.apps[n-1].col
	}
	return t.line, t.col
}

// outerPlus returns the +n sugar applied to the whole term.
func (t *rawTerm) outerPlus() int {
	if n := len(t.apps); n > 0 {
		return t.apps[n-1].plus
	}
	return t.plus
}

// bareVar reports whether the term is a variable and nothing else.
func (t *rawTerm) bareVar() bool { return t.kind == rVar && t.plus == 0 && len(t.apps) == 0 }

type rawAtom struct {
	name string
	args []rawTerm
	line int
	col  int
}

type rawClause struct {
	head   *rawAtom // nil for a query
	body   []rawAtom
	isRule bool
	line   int
}

type rawDirective struct {
	kind  string // "functional" or "data"
	pred  string
	arity int // total argument count, paper-style
	line  int
}

type rawProgram struct {
	clauses    []rawClause
	queries    []rawClause
	directives []rawDirective
}

type parser struct {
	lx   *lexer
	tok  token
	open int       // applications whose ')' is still ahead
	slab []rawTerm // chunk that keep carves argument lists from
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, perrf(p.tok.line, p.tok.col, "expected %s, found %s", k, p.tok.kind)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) parseProgram() (*rawProgram, error) {
	out := &rawProgram{}
	for p.tok.kind != tokEOF {
		switch p.tok.kind {
		case tokAt:
			d, err := p.parseDirective()
			if err != nil {
				return nil, err
			}
			out.directives = append(out.directives, d)
		case tokQuery:
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			out.queries = append(out.queries, q)
		default:
			c, err := p.parseClause()
			if err != nil {
				return nil, err
			}
			out.clauses = append(out.clauses, c)
		}
	}
	return out, nil
}

func (p *parser) parseDirective() (rawDirective, error) {
	line := p.tok.line
	if _, err := p.expect(tokAt); err != nil {
		return rawDirective{}, err
	}
	kw, err := p.expect(tokIdent)
	if err != nil {
		return rawDirective{}, err
	}
	if kw.text != "functional" && kw.text != "data" {
		return rawDirective{}, perrf(kw.line, kw.col, "unknown directive @%s (want @functional or @data)", kw.text)
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return rawDirective{}, err
	}
	if _, err := p.expect(tokSlash); err != nil {
		return rawDirective{}, err
	}
	ar, err := p.expect(tokNumber)
	if err != nil {
		return rawDirective{}, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return rawDirective{}, err
	}
	return rawDirective{kind: kw.text, pred: name.text, arity: ar.num, line: line}, nil
}

func (p *parser) parseQuery() (rawClause, error) {
	line := p.tok.line
	if _, err := p.expect(tokQuery); err != nil {
		return rawClause{}, err
	}
	atoms, err := p.parseAtomList()
	if err != nil {
		return rawClause{}, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return rawClause{}, err
	}
	return rawClause{body: atoms, line: line}, nil
}

// parseClause parses either "B1, ..., Bn -> H." (a rule), "H <- B1, ..., Bn."
// (the same rule head-first), or "F." (a fact).
func (p *parser) parseClause() (rawClause, error) {
	line := p.tok.line
	atoms, err := p.parseAtomList()
	if err != nil {
		return rawClause{}, err
	}
	switch p.tok.kind {
	case tokArrow:
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		head, err := p.parseAtom()
		if err != nil {
			return rawClause{}, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return rawClause{}, err
		}
		return rawClause{head: &head, body: atoms, isRule: true, line: line}, nil
	case tokLArrow:
		if len(atoms) != 1 {
			return rawClause{}, perrf(line, 0, "a '<-' rule must have exactly one head atom")
		}
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		body, err := p.parseAtomList()
		if err != nil {
			return rawClause{}, err
		}
		if _, err := p.expect(tokDot); err != nil {
			return rawClause{}, err
		}
		return rawClause{head: &atoms[0], body: body, isRule: true, line: line}, nil
	case tokDot:
		if err := p.advance(); err != nil {
			return rawClause{}, err
		}
		if len(atoms) != 1 {
			return rawClause{}, perrf(line, 0, "a fact must be a single atom")
		}
		return rawClause{head: &atoms[0], line: line}, nil
	}
	return rawClause{}, perrf(p.tok.line, p.tok.col, "expected '->', '<-' or '.', found %s", p.tok.kind)
}

func (p *parser) parseAtomList() ([]rawAtom, error) {
	var atoms []rawAtom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
		if p.tok.kind != tokComma {
			return atoms, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseAtom() (rawAtom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return rawAtom{}, err
	}
	a := rawAtom{name: name.text, line: name.line, col: name.col}
	if p.tok.kind != tokLParen {
		return a, nil // 0-ary atom
	}
	if err := p.advance(); err != nil {
		return rawAtom{}, err
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return rawAtom{}, err
		}
		a.args = append(a.args, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return rawAtom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return rawAtom{}, err
	}
	return a, nil
}

// parsePlus folds a run of +n sugar into *plus. The sum saturates just past
// MaxTermDepth (the builder rejects such a term), so it cannot overflow.
func (p *parser) parsePlus(plus *int) error {
	for p.tok.kind == tokPlus {
		if err := p.advance(); err != nil {
			return err
		}
		n, err := p.expect(tokNumber)
		if err != nil {
			return err
		}
		if *plus <= MaxTermDepth {
			*plus += n.num
		}
	}
	return nil
}

// keep copies an argument list into the parser's slab, so a deep term costs
// O(log n) allocations for its argument lists instead of one per layer.
// Chunks are never regrown: earlier lists stay valid.
func (p *parser) keep(args []rawTerm) []rawTerm {
	if len(args) > cap(p.slab)-len(p.slab) {
		p.slab = make([]rawTerm, 0, max(64, 2*cap(p.slab), len(args)))
	}
	lo := len(p.slab)
	p.slab = append(p.slab, args...)
	return p.slab[lo:len(p.slab):len(p.slab)]
}

func isVarName(s string) bool {
	c := s[0]
	return c == '_' || (c >= 'A' && c <= 'Z')
}

// parseTerm parses base, applications and +n sugar. The "name(" prefixes of
// a nested term are consumed by a loop, outermost first, then closed
// innermost first; only an argument after the first recurses.
func (p *parser) parseTerm() (rawTerm, error) {
	var t rawTerm
	for {
		tok := p.tok
		switch tok.kind {
		case tokNumber:
			t.kind, t.num = rNum, tok.num
		case tokIdent:
			t.kind, t.name = rConst, tok.text
			if isVarName(tok.text) {
				t.kind = rVar
			}
		default:
			return rawTerm{}, perrf(tok.line, tok.col, "expected a term, found %s", tok.kind)
		}
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		if tok.kind != tokIdent || p.tok.kind != tokLParen {
			t.line, t.col = tok.line, tok.col // tok is the base
			break
		}
		// tok names an application; its first argument comes next.
		if p.open++; p.open > MaxTermDepth {
			return rawTerm{}, errTooDeep(tok.line, tok.col)
		}
		if err := p.advance(); err != nil {
			return rawTerm{}, err
		}
		t.apps = append(t.apps, rawApp{name: tok.text, line: tok.line, col: tok.col})
	}
	if err := p.parsePlus(&t.plus); err != nil || len(t.apps) == 0 {
		return t, err
	}
	for i, j := 0, len(t.apps)-1; i < j; i, j = i+1, j-1 {
		t.apps[i], t.apps[j] = t.apps[j], t.apps[i]
	}
	var buf [4]rawTerm
	for i := range t.apps {
		app := &t.apps[i]
		args := buf[:0]
		for p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return rawTerm{}, err
			}
			arg, err := p.parseTerm()
			if err != nil {
				return rawTerm{}, err
			}
			args = append(args, arg)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return rawTerm{}, err
		}
		p.open--
		if len(args) > 0 {
			app.args = p.keep(args)
		}
		if err := p.parsePlus(&app.plus); err != nil {
			return rawTerm{}, err
		}
	}
	return t, nil
}
