// The request side of the JSON API. The five request objects (facts, ask,
// answers, batch, watch) are flat: string, int, uint64, bool and []string
// members, nothing nested. One decoder reads them — strict, free of
// reflection, over a body read once into a pooled buffer sized by
// Content-Length — so that a request carrying kilobytes of query text costs
// one pass to find the end of the string and one copy out of the buffer, or
// none for an ask's query, which is read in place (queryText).
//
// The decoder accepts what encoding/json with DisallowUnknownFields accepts
// and yields the same values (null members are skipped, invalid UTF-8 and
// unpaired surrogates become U+FFFD, integers take no fraction or exponent),
// with three exceptions, each stricter: data after the object, a member
// repeated, and a member name that differs from its declaration in case are
// errors. DESIGN.md argues them; FuzzDecodeRequest holds the line.
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"funcdb/internal/api"
)

// field binds one member of a request object to the variable it decodes
// into: a *string, *queryText, *int, *uint64, *bool or *[]string.
type field struct {
	name string
	dst  any
}

// queryText is a string member decoded as a view: when the JSON string needs
// no rewriting (no escape, valid UTF-8) the bytes alias the request body, so
// reading them costs no copy. A handler that decodes one holds its body
// (decodeHeld) until it returns, and keeps nothing of the view past that.
type queryText []byte

// bufPool recycles request buffers: a body is read into one and the
// response of an ask is assembled in one. Buffers that grew past
// maxPooledBuf (an upload near MaxBodyBytes) are dropped, not pooled.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf hands a buffer back to bufPool. It is a variable so that a test can
// overwrite each buffer as it comes back, and so see any view kept past it.
var putBuf = func(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// decode reads the request body, at most MaxBodyBytes of it and under the
// request's deadline (api.ReadBody), and decodes the JSON object it holds
// into fields. A body that declares or turns out to have more bytes is 413
// body_too_large; anything else wrong with it is 400 bad_request, except
// running out of time, which is the request's deadline.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, fields []field) error {
	bp, err := s.decodeHeld(w, r, fields)
	putBuf(bp)
	return err
}

// decodeHeld is decode for fields that view the body (queryText): the body
// stays in the returned pooled buffer, which the caller hands back with
// putBuf — whether decoding failed or not — once nothing reads the views.
func (s *Server) decodeHeld(w http.ResponseWriter, r *http.Request, fields []field) (*[]byte, error) {
	bp := getBuf()
	deadline, _ := r.Context().Deadline()
	body, err := api.ReadBody(w, r, (*bp)[:0], s.cfg.MaxBodyBytes, deadline)
	*bp = body
	if err != nil {
		return bp, err
	}
	if err := decodeObject(body, fields); err != nil {
		return bp, errf(http.StatusBadRequest, "invalid request body: %v", err)
	}
	return bp, nil
}

// decodeObject decodes the JSON object in data into fields. A top-level
// null, like a null member, leaves its target alone.
func decodeObject(data []byte, fields []field) error {
	d := decoder{data: data}
	d.space()
	if d.pos == len(data) {
		return errors.New("empty body")
	}
	if !d.literal("null") {
		if err := d.object(fields); err != nil {
			return err
		}
	}
	d.space()
	if d.pos != len(data) {
		return d.errorf("data after the request object")
	}
	return nil
}

// decoder is a cursor over one request body.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end.
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes lit if the cursor is on it.
func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func (d *decoder) object(fields []field) error {
	if d.peek() != '{' {
		return d.errorf("want a JSON object")
	}
	d.pos++
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	var seen uint64 // request objects have a handful of members
	for {
		d.space()
		keyAt := d.pos
		key, err := d.str()
		if err != nil {
			return err
		}
		i := 0
		for i < len(fields) && fields[i].name != string(key) {
			i++
		}
		if i == len(fields) {
			d.pos = keyAt
			return d.errorf("unknown member %q", key)
		}
		if seen&(1<<i) != 0 {
			d.pos = keyAt
			return d.errorf("duplicate member %q", key)
		}
		seen |= 1 << i
		d.space()
		if d.peek() != ':' {
			return d.errorf("want ':' after member name")
		}
		d.pos++
		d.space()
		if err := d.value(fields[i].dst); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.errorf("want ',' or '}' after member value")
		}
	}
}

// value decodes the JSON value at the cursor into dst.
func (d *decoder) value(dst any) error {
	if d.literal("null") {
		return nil
	}
	switch p := dst.(type) {
	case *string:
		raw, err := d.str()
		if err != nil {
			return err
		}
		*p = string(raw)
	case *queryText:
		raw, err := d.str()
		if err != nil {
			return err
		}
		*p = raw
	case *bool:
		switch {
		case d.literal("true"):
			*p = true
		case d.literal("false"):
			*p = false
		default:
			return d.errorf("want true or false")
		}
	case *int:
		lit, err := d.integer()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if err != nil {
			return d.errorf("integer %s out of range", lit)
		}
		*p = int(n)
	case *uint64:
		lit, err := d.integer()
		if err != nil {
			return err
		}
		n, err := strconv.ParseUint(string(lit), 10, 64)
		if err != nil {
			return d.errorf("integer %s out of range", lit)
		}
		*p = n
	case *[]string:
		return d.strings(p)
	default:
		panic(fmt.Sprintf("server: no decoder for a %T request member", dst))
	}
	return nil
}

// integer scans -?(0|[1-9][0-9]*) and refuses a fraction or an exponent:
// no request member is a float.
func (d *decoder) integer() ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	digits := d.pos
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.pos++
	}
	switch c := d.peek(); {
	case d.pos == digits:
		d.pos = start
		return nil, d.errorf("want an integer")
	case d.data[digits] == '0' && d.pos > digits+1:
		return nil, d.errorf("integer with a leading zero")
	case c == '.' || c == 'e' || c == 'E':
		return nil, d.errorf("want an integer, not a fraction or an exponent")
	}
	return d.data[start:d.pos], nil
}

func (d *decoder) strings(p *[]string) error {
	if d.peek() != '[' {
		return d.errorf("want an array of strings")
	}
	d.pos++
	list := []string{}
	d.space()
	if d.peek() == ']' {
		d.pos++
		*p = list
		return nil
	}
	for {
		d.space()
		var elem string
		if err := d.value(&elem); err != nil {
			return err
		}
		list = append(list, elem)
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			*p = list
			return nil
		default:
			return d.errorf("want ',' or ']' after array element")
		}
	}
}

// str decodes the string literal at the cursor. When the literal holds
// nothing to rewrite — no escape, no control character, valid UTF-8 — the
// result aliases the input: one search for the closing quote and one pass
// over the span is all a long query text costs.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.errorf("want a string")
	}
	start := d.pos + 1
	end := bytes.IndexByte(d.data[start:], '"')
	if end < 0 {
		d.pos = len(d.data)
		return nil, d.errorf("unterminated string")
	}
	if span := d.data[start : start+end]; verbatim(span) {
		d.pos = start + end + 1
		return span, nil
	}
	return d.unquote(start)
}

// verbatim reports whether a string literal's contents stand for themselves:
// no control character, no backslash, valid UTF-8. Eight bytes at a time while
// the text is plain ASCII — (w-n)&^w has the top bit of a byte set iff that
// byte of w is below n, exactly so when no byte of w has its top bit set —
// and byte by byte from the first word that is not.
func verbatim(s []byte) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		bs := w ^ lo*'\\' // a zero byte where w has a backslash
		if (w|(w-lo*0x20)&^w|(bs-lo)&^bs)&hi != 0 {
			break
		}
	}
	ascii := true
	for _, c := range s[i:] {
		if c < 0x20 || c == '\\' {
			return false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	return ascii || utf8.Valid(s[i:])
}

// unquote decodes a string literal whose contents start at i, rewriting as
// encoding/json does: escapes are resolved, a \u surrogate without its mate
// and every byte of invalid UTF-8 become U+FFFD.
func (d *decoder) unquote(i int) ([]byte, error) {
	data := d.data
	var out []byte
	for {
		if i >= len(data) {
			d.pos = len(data)
			return nil, d.errorf("unterminated string")
		}
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.errorf("control character in string")
		case c == '\\':
			d.pos = i
			if i+1 >= len(data) {
				return nil, d.errorf("unterminated string")
			}
			i += 2
			switch e := data[i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					return nil, d.errorf(`\u wants four hex digits`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					mate := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						mate = hex4(data[i+2:])
					}
					if pair := utf16.DecodeRune(r, mate); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errorf("invalid escape in string")
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// hex4 reads four hex digits, -1 if s does not start with four.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
