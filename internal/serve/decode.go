package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// A /predict body is parsed in one pass, straight into the flat []float32
// its samples are subslices of. The parser accepts exactly the bodies that
// encoding/json's Decoder.Decode accepts into a PredictRequest, and yields
// the same samples bit for bit (FuzzParsePredict holds the two to one
// answer):
//
//   - the first value must be valid JSON nested at most maxDepth deep, and
//     bytes after it are not looked at;
//   - a key that does not unescape to "inputs" under encoding/json's case
//     folding is skipped, whatever its value;
//   - "inputs" is null or an array of samples, each null or an array of
//     numbers and nulls; a number is strconv.ParseFloat(s, 32), and one that
//     overflows float32 is an error;
//   - a repeated "inputs" decodes into what the previous one left, as
//     reflection does: the last one sets the samples, except that a null
//     number keeps the value an earlier "inputs" wrote at its place (0 if
//     none did), and a null or empty array starts its slice afresh.

// maxDepth is encoding/json's nesting limit: the scanner refuses the
// 10 001st open array or object, counting the body's own.
const maxDepth = 10000

// parser is the state of one parse. Its slices are reused by the next parse.
type parser struct {
	b []byte
	i int

	// floats holds every value "inputs" wrote; rows[k] is where sample k's
	// values lie in it, and the first n rows are the samples of the last
	// "inputs".
	floats []float32
	rows   []row
	n      int

	// objects has bit d set when the container open at depth d is an object
	// (skip's stack, so that skipping allocates nothing at any depth).
	objects [maxDepth/64 + 1]uint64
}

// row is one sample position's slice: n values from off, and hw ≥ n values
// there that an earlier "inputs" may have left past them, which reflection
// would find in the slice's capacity.
type row struct{ off, n, hw int }

var errEOF = errors.New("unexpected end of body")

// parse parses body and returns its samples, which alias p.floats until the
// next parse.
func (p *parser) parse(body []byte, samples [][]float32) ([][]float32, error) {
	p.b, p.i = body, 0
	p.floats, p.rows, p.n = p.floats[:0], p.rows[:0], 0
	if err := p.request(); err != nil {
		return samples[:0], err
	}
	samples = samples[:0]
	for _, r := range p.rows[:p.n] {
		samples = append(samples, p.floats[r.off:r.off+r.n:r.off+r.n])
	}
	return samples, nil
}

// request reads the body's first value as a PredictRequest.
func (p *parser) request() error {
	p.ws()
	switch p.peek() {
	case '{':
	case 'n':
		return p.lit("null") // decodes to a request with no inputs
	case 0:
		return errEOF
	default:
		return p.errorf("body is not a JSON object")
	}
	p.i++
	p.ws()
	if p.peek() == '}' {
		return nil
	}
	for {
		inputs, err := p.key()
		if err != nil {
			return err
		}
		if inputs {
			err = p.inputs()
		} else {
			err = p.skip(1)
		}
		if err != nil {
			return err
		}
		p.ws()
		switch p.peek() {
		case ',':
			p.i++
			p.ws()
		case '}':
			return nil
		default:
			return p.unexpected("',' or '}'")
		}
	}
}

// key reads an object key and its colon and reports whether the key names
// the inputs field.
func (p *parser) key() (bool, error) {
	if p.peek() != '"' {
		return false, p.unexpected("a key")
	}
	start := p.i + 1
	if err := p.str(); err != nil {
		return false, err
	}
	k := p.b[start : p.i-1]
	p.ws()
	if p.peek() != ':' {
		return false, p.unexpected("':'")
	}
	p.i++
	p.ws()
	return string(k) == "inputs" || isInputs(k), nil
}

// inputs reads the value of an "inputs" key into rows.
func (p *parser) inputs() error {
	switch p.peek() {
	case 'n':
		p.rows, p.n = p.rows[:0], 0
		return p.lit("null")
	case '[':
	default:
		return p.errorf("inputs is not an array")
	}
	p.i++
	p.ws()
	k := 0
	if p.peek() != ']' {
		for {
			if k == len(p.rows) {
				p.rows = append(p.rows, row{})
			}
			if err := p.sample(&p.rows[k], k); err != nil {
				return err
			}
			k++
			p.ws()
			if p.peek() == ']' {
				break
			}
			if p.peek() != ',' {
				return p.unexpected("',' or ']'")
			}
			p.i++
			p.ws()
		}
	}
	p.i++
	if k == 0 {
		p.rows = p.rows[:0]
	}
	p.n = k
	return nil
}

// sample reads sample k into r.
func (p *parser) sample(r *row, k int) error {
	switch p.peek() {
	case 'n':
		*r = row{}
		return p.lit("null")
	case '[':
	default:
		return p.errorf("input %d is not an array", k)
	}
	p.i++
	p.ws()
	j := 0
	if p.peek() != ']' {
		for {
			if p.peek() == 'n' {
				if err := p.lit("null"); err != nil {
					return err
				}
				p.set(r, j, 0, true)
			} else {
				start := p.i
				if err := p.number(); err != nil {
					return err
				}
				f, err := strconv.ParseFloat(string(p.b[start:p.i]), 32)
				if err != nil {
					return fmt.Errorf("input %d value %d: %w", k, j, err)
				}
				p.set(r, j, float32(f), false)
			}
			j++
			p.ws()
			if p.peek() == ']' {
				break
			}
			if p.peek() != ',' {
				return p.unexpected("',' or ']'")
			}
			p.i++
			p.ws()
		}
	}
	p.i++
	if j == 0 {
		*r = row{}
	}
	r.n = j
	return nil
}

// set writes value j of row r. Below the row's high-water mark it writes in
// place, where a null keeps what is there; at the mark it appends to floats,
// moving the row to the end first if another row has been appended since.
func (p *parser) set(r *row, j int, v float32, null bool) {
	if j < r.hw {
		if !null {
			p.floats[r.off+j] = v
		}
		return
	}
	if r.off+r.hw != len(p.floats) {
		off := len(p.floats)
		p.floats = append(p.floats, p.floats[r.off:r.off+r.hw]...)
		r.off = off
	}
	p.floats = append(p.floats, v)
	r.hw++
}

// skip moves past one value of any type, checking its syntax as the
// scanner does, with depth containers already open around it.
func (p *parser) skip(depth int) error {
	base := depth
	for {
		p.ws()
		var err error
		switch c := p.peek(); {
		case c == '{' || c == '[':
			p.i++
			depth++
			if depth > maxDepth {
				return p.errorf("nested deeper than %d", maxDepth)
			}
			obj := c == '{'
			if obj {
				p.objects[depth/64] |= 1 << (depth % 64)
			} else {
				p.objects[depth/64] &^= 1 << (depth % 64)
			}
			p.ws()
			if (obj && p.peek() == '}') || (!obj && p.peek() == ']') {
				p.i++
				depth--
				break
			}
			if obj {
				if _, err := p.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			err = p.str()
		case c == '-' || ('0' <= c && c <= '9'):
			err = p.number()
		case c == 't':
			err = p.lit("true")
		case c == 'f':
			err = p.lit("false")
		case c == 'n':
			err = p.lit("null")
		default:
			return p.unexpected("a value")
		}
		if err != nil {
			return err
		}
		// A value is complete: close the containers it completes, then go
		// on to the next value, or return once the skipped one is done.
		for depth > base {
			p.ws()
			obj := p.objects[depth/64]&(1<<(depth%64)) != 0
			c := p.peek()
			if c == ',' {
				p.i++
				p.ws()
				if obj {
					if _, err := p.key(); err != nil {
						return err
					}
				}
				break
			}
			if (obj && c == '}') || (!obj && c == ']') {
				p.i++
				depth--
				continue
			}
			if obj {
				return p.unexpected("',' or '}'")
			}
			return p.unexpected("',' or ']'")
		}
		if depth == base {
			return nil
		}
	}
}

// str moves past the string at p.i, checking its escapes and control
// characters as the scanner does; other bytes, valid UTF-8 or not, pass.
func (p *parser) str() error {
	p.i++
	for p.i < len(p.b) {
		c := p.b[p.i]
		p.i++
		switch {
		case c == '"':
			return nil
		case c == '\\':
			if p.i == len(p.b) {
				return errEOF
			}
			switch p.b[p.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i++
			case 'u':
				p.i++
				for end := p.i + 4; p.i < end; p.i++ {
					if p.i == len(p.b) {
						return errEOF
					}
					if !isHex(p.b[p.i]) {
						return p.errorf("invalid \\u escape")
					}
				}
			default:
				return p.errorf("invalid escape")
			}
		case c < 0x20:
			p.i--
			return p.errorf("control character in string")
		}
	}
	return errEOF
}

// number moves past the number at p.i, checking the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? that the scanner checks;
// strconv.ParseFloat alone would also take "+1", ".5", "Inf" or "0x1p3".
func (p *parser) number() error {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.i = i
		return p.unexpected("a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			p.i = i
			return p.unexpected("a digit")
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			p.i = i
			return p.unexpected("a digit")
		}
		i = digits(b, i+1)
	}
	p.i = i
	return nil
}

// lit moves past the literal s.
func (p *parser) lit(s string) error {
	if !bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		return p.errorf("invalid literal, want %s", s)
	}
	p.i += len(s)
	return nil
}

// ws moves past JSON whitespace.
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the byte at p.i, or 0 at the end of the body (0 is never
// valid where a byte is peeked, so the end fails as any bad byte does).
func (p *parser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *parser) unexpected(want string) error {
	if p.i == len(p.b) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.b[p.i], p.i, want)
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// isInputs reports whether the key text k (between its quotes, escapes
// already checked) names the inputs field as encoding/json matches names:
// unescaped, with a bad UTF-8 byte or a lone surrogate read as U+FFFD, its
// runes fold one for one to those of "inputs", so "INPUTſ" matches.
func isInputs(k []byte) bool {
	const name = "INPUTS" // each rune folded to the smallest of its orbit
	n := 0
	for len(k) > 0 {
		r, size := utf8.DecodeRune(k)
		if k[0] == '\\' {
			r, size = unescape(k)
		}
		k = k[size:]
		if n == len(name) || fold(r) != rune(name[n]) {
			return false
		}
		n++
	}
	return n == len(name)
}

// unescape decodes the escape k starts with, as encoding/json unquotes it.
func unescape(k []byte) (rune, int) {
	switch k[1] {
	case 'u':
		r := hex4(k[2:6])
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(k) >= 12 && k[6] == '\\' && k[7] == 'u' {
			if d := utf16.DecodeRune(r, hex4(k[8:12])); d != unicode.ReplacementChar {
				return d, 12
			}
		}
		return unicode.ReplacementChar, 6
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	}
	return rune(k[1]), 2
}

func hex4(h []byte) rune {
	var r rune
	for _, c := range h {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// fold returns the smallest rune of r's simple case-folding orbit, as
// encoding/json's foldRune does.
func fold(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
