// Package jsonread reads JSON documents of one known shape without
// reflection: the compact form that encoding/json's Marshal writes for a
// struct, read field by field in declaration order. The caller spells each
// field name, with its separators, as a literal it expects next; a map is
// read member by member as its bytes stream past. Nothing is built beyond
// what the caller keeps, so decoding a map of thousands of entries costs no
// allocation per entry.
//
// The accepted form is narrow on purpose. No whitespace outside strings,
// fields in the order Marshal writes them, integers as plain decimal digit
// runs (an optional '-' for signed ones), no trailing bytes. Any other
// input, even valid JSON that encoding/json would accept, is rejected with
// an error wrapping ErrForm. Within that form, every value decodes exactly
// as encoding/json decodes it, string escapes included.
package jsonread

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrForm reports input that is not in the accepted form.
var ErrForm = errors.New("jsonread: not the expected compact JSON")

// Reader walks one document. Errors are sticky: after the first mismatch
// every method returns a zero value and Err reports the mismatch.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// New returns a Reader over data. Strings it returns may alias data.
func New(data []byte) Reader { return Reader{data: data} }

// Err returns the first mismatch, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(want string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: want %s at byte %d", ErrForm, want, r.pos)
	}
}

// Accept consumes lit if the input continues with it, and reports whether
// it did.
func (r *Reader) Accept(lit string) bool {
	if r.err != nil || len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		return false
	}
	r.pos += len(lit)
	return true
}

// Expect consumes lit, or fails.
func (r *Reader) Expect(lit string) {
	if !r.Accept(lit) {
		r.fail(fmt.Sprintf("%q", lit))
	}
}

// More reports whether another member follows in the object being read,
// after the n members already read; it consumes the ',' before every
// member but the first. At the closing '}', which it consumes, and after
// an error, it reports false.
func (r *Reader) More(n int) bool {
	if r.err != nil || r.Accept("}") {
		return false
	}
	if n > 0 {
		r.Expect(",")
	}
	return r.err == nil
}

// Key reads an object member's name and the ':' after it.
func (r *Reader) Key() []byte {
	k := r.Text()
	r.Expect(":")
	return k
}

// Text reads a string and returns its decoded bytes. A string without
// escapes or bytes outside printable ASCII is returned as a subslice of
// the input, and one whose escapes are all two-byte ones (\n, \", ...) is
// unescaped into a copy. Any other string, one with a \u escape or a byte
// outside printable ASCII, is decoded by encoding/json, so surrogate pairs
// and invalid UTF-8 come out exactly as it decodes them.
func (r *Reader) Text() []byte {
	if r.err != nil {
		return nil
	}
	d, start := r.data, r.pos
	if start >= len(d) || d[start] != '"' {
		r.fail("a string")
		return nil
	}
	escaped, ascii := false, true
	i := start + 1
	for ; i < len(d) && d[i] != '"'; i++ {
		switch c := d[i]; {
		case c == '\\':
			escaped = true
			if i++; i < len(d) && d[i] == 'u' {
				ascii = false
			}
		case c < 0x20 || c >= 0x80:
			ascii = false
		}
	}
	if i >= len(d) {
		r.fail("a closing '\"'")
		return nil
	}
	r.pos = i + 1
	if ascii {
		if !escaped {
			return d[start+1 : i]
		}
		if s, ok := unescape(d[start+1 : i]); ok {
			return s
		}
	}
	var s string
	if err := json.Unmarshal(d[start:i+1], &s); err != nil {
		r.pos = start
		r.fail("a valid string")
		return nil
	}
	return []byte(s)
}

// unescaped maps the byte after a backslash to the byte a two-byte escape
// stands for; 0 marks a byte that does not form one.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unescape decodes the two-byte escapes of s, the contents of a string in
// which every backslash is followed by a byte. It reports false at the
// first backslash that starts no two-byte escape.
func unescape(s []byte) ([]byte, bool) {
	out := make([]byte, 0, len(s))
	for {
		k := bytes.IndexByte(s, '\\')
		if k < 0 {
			return append(out, s...), true
		}
		c := unescaped[s[k+1]]
		if c == 0 {
			return nil, false
		}
		out = append(append(out, s[:k]...), c)
		s = s[k+2:]
	}
}

// Uint reads an unsigned integer: a run of decimal digits without a
// leading zero, no larger than math.MaxUint64.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	d, i := r.data, r.pos
	var v uint64
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9'; i++ {
		digit := uint64(d[i] - '0')
		if v > (math.MaxUint64-digit)/10 {
			r.fail("an integer that fits 64 bits")
			return 0
		}
		v = v*10 + digit
	}
	if n := i - r.pos; n == 0 || n > 1 && d[r.pos] == '0' {
		r.fail("an integer")
		return 0
	}
	r.pos = i
	return v
}

// Int reads a signed integer: Uint's digit run after an optional '-',
// within the range of int64.
func (r *Reader) Int() int64 {
	neg := r.Accept("-")
	u := r.Uint()
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u <= math.MaxInt64:
		return int64(u)
	}
	r.fail("an integer that fits int64")
	return 0
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.Accept("true") {
		return true
	}
	r.Expect("false")
	return false
}

// Rest consumes and returns everything after the current position.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	rest := r.data[r.pos:]
	r.pos = len(r.data)
	return rest
}

// End fails unless the whole input has been read.
func (r *Reader) End() {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("the end of the input")
	}
}
