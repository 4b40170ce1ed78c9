package parser

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError is a syntax error with its source position. Line and Col are
// 1-based; Col is 0 when only the line is known. It renders as
// "line:col: message", the format the REPL and server have always shown.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("%d: %s", e.Line, e.Msg)
}

// lineCol converts a byte offset of src into its 1-based line and column,
// which counts bytes.
func lineCol(src string, off int) (line, col int) {
	return 1 + strings.Count(src[:off], "\n"), off - strings.LastIndexByte(src[:off], '\n')
}

// errAt builds the syntax error of the token at byte offset off.
func (p *parser) errAt(off int, format string, args ...any) error {
	line, col := lineCol(p.src, off)
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// errLine builds a syntax error that names only the line of offset off.
func (p *parser) errLine(off int, msg string) error {
	line, _ := lineCol(p.src, off)
	return &ParseError{Line: line, Msg: msg}
}

// posn is where an inference or build error is reported: "line:col", or
// "line N" for a directive. It is formatted only when an error is.
type posn struct {
	src      string
	off      int
	lineOnly bool
}

func (p posn) String() string {
	line, col := lineCol(p.src, p.off)
	if p.lineOnly {
		return "line " + strconv.Itoa(line)
	}
	return strconv.Itoa(line) + ":" + strconv.Itoa(col)
}
