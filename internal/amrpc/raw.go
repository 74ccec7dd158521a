package amrpc

// The raw-call surface: how a component that knows its arguments' shape
// better than the generic decoder — or that only passes them on — takes a
// call in wire form and answers it in wire form, and how a caller hands the
// client a value that writes its own encoding. All of it reuses the codec's
// one parser and one string escaper instead of bringing their own.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/aspect"
)

// A RawCall is what a RawComponent reads of a wire request besides what the
// invocation carries: each argument as the frame carried it, one valid JSON
// value, and the request's fence term, zero when the request is unfenced.
// The arguments alias the connection's pooled request line: they are valid
// only until CallRaw returns, and a component that keeps anything of them
// must copy it.
type RawCall struct {
	Args  []json.RawMessage
	Fence uint64
}

// A RawComponent is a Component the server calls in wire form. Every
// request addressing it goes to CallRaw instead of Call, its arguments
// undecoded and its invocation holding none; the component decodes what it
// needs (DecodeArgs, Scanner) and appends exactly one JSON value, its
// result, to dst, the server's result buffer. The server sends those bytes
// verbatim once it has checked they are one JSON value a frame can carry on
// one line, as it checks an Appender's.
type RawComponent interface {
	Component
	CallRaw(inv *aspect.Invocation, call RawCall, dst []byte) ([]byte, error)
}

// DecodeArgs decodes arguments in wire form into the generic values a
// Component's invocation holds: numbers become float64, objects
// map[string]any. An argument it cannot decode is an ErrBadRequest.
func DecodeArgs(raw []json.RawMessage) ([]any, error) {
	out := make([]any, len(raw))
	for i, r := range raw {
		v, err := decodeValue(r)
		if err != nil {
			return nil, fmt.Errorf("%w: arg %d: %w", ErrBadRequest, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// An Appender is an argument (or result) that writes its own JSON encoding:
// AppendJSON appends exactly one JSON value to dst and returns the extended
// slice. The encoder copies what it appends into the frame verbatim — no
// re-encoding, no escaping — once it has checked that the bytes are one
// valid JSON value with no newline, so a faulty Appender fails its call
// instead of corrupting the connection's framing.
type Appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// AppendString appends s as a JSON string literal, escaped exactly as the
// frames and json.Marshal escape it.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// valueEncoders holds encoders for AppendValue, so a value that needs
// encoding/json reuses a json.Encoder instead of making one per value.
var valueEncoders = sync.Pool{New: func() any { return new(valueEncoder) }}

// AppendValue appends the JSON encoding of v to dst exactly as the client
// encodes an argument: byte for byte what json.Marshal produces, with
// strings, booleans, nil and integers written inline.
func AppendValue(dst []byte, v any) ([]byte, error) {
	if b, ok := appendScalar(dst, v); ok {
		return b, nil
	}
	e := valueEncoders.Get().(*valueEncoder)
	e.buf = dst
	err := e.add(v)
	dst, e.buf = e.buf, nil
	valueEncoders.Put(e)
	return dst, err
}

// Fits reports whether v is one valid JSON value that a frame can carry at
// depth arrays and objects inside an argument: whether, there, it stays
// within the nesting bound every frame is held to. An Appender that wraps
// values it did not encode itself checks them with Fits, so that one too
// deep is refused on its own rather than failing the whole argument.
func Fits(v []byte, depth int) bool {
	p := frameParser{b: v}
	return p.skipValue(1+depth) && p.i == len(v)
}

// carriable reports whether v is one JSON value a frame can carry verbatim
// as an argument or a result: valid, nested no deeper than an argument may
// be, and on one line.
func carriable(v []byte) bool {
	return Fits(v, 0) && bytes.IndexByte(v, '\n') < 0
}

// addEncoded appends what a writes, verbatim, after checking it is
// carriable.
func (e *valueEncoder) addEncoded(a Appender) error {
	start := len(e.buf)
	b, err := a.AppendJSON(e.buf)
	if err != nil {
		e.buf = e.buf[:start]
		return err
	}
	if len(b) < start {
		e.buf = e.buf[:start]
		return fmt.Errorf("amrpc: %T shortened the buffer it was to append to", a)
	}
	if v := b[start:]; !carriable(v) {
		e.buf = e.buf[:start]
		return fmt.Errorf("amrpc: %T appended %d bytes that are not one JSON value on one line", a, len(v))
	}
	e.buf = b
	return nil
}

// A Scanner walks one JSON value already in wire form — typically an
// argument a RawComponent received — with the frame decoder's parser, so a
// component decoding its own arguments needs no parser of its own. The
// caller drives it by the value's shape: Object and Member, Array and
// Element, then one of the value readers at each position. The first
// syntax or type error stops the walk; every later call returns a zero
// value, and Done reports the error.
type Scanner struct {
	p     frameParser
	depth int  // arrays and objects open around the cursor
	first bool // the innermost open container has no element yet
}

// Reset starts a walk over b.
func (s *Scanner) Reset(b []byte) {
	*s = Scanner{p: frameParser{b: b}}
	s.p.space()
}

// Peek returns the first byte of the value at the cursor, 0 after an error
// or at the end.
func (s *Scanner) Peek() byte {
	if s.p.bad {
		return 0
	}
	return s.p.peek()
}

// Object enters the object at the cursor; Member then walks its members.
func (s *Scanner) Object() bool { return s.open('{') }

// Array enters the array at the cursor; Element then walks its elements.
func (s *Scanner) Array() bool { return s.open('[') }

func (s *Scanner) open(c byte) bool {
	if s.depth >= maxNesting || !s.p.eat(c) {
		return s.p.fail()
	}
	s.depth++
	s.first = true
	return true
}

// Member advances to the next member of the innermost open object and
// returns its name, unquoted — aliasing the scanned bytes unless the
// literal had escapes — with the cursor on its value. It returns false
// once the object has closed, or on an error.
func (s *Scanner) Member() ([]byte, bool) {
	if !s.more('}') {
		return nil, false
	}
	start := s.p.i
	if !s.p.skipString() {
		return nil, false
	}
	name := s.p.b[start+1 : s.p.i-1]
	if !s.p.plain {
		name, _ = unquote(name)
	}
	s.p.space()
	if !s.p.eat(':') {
		return nil, false
	}
	s.p.space()
	return name, true
}

// Element advances to the next element of the innermost open array. It
// returns false once the array has closed, or on an error.
func (s *Scanner) Element() bool { return s.more(']') }

// more moves past the separator before the next item of the innermost
// container, or past its closer.
func (s *Scanner) more(closer byte) bool {
	if s.p.bad {
		return false
	}
	s.p.space()
	if s.p.peek() == closer {
		s.p.i++
		s.depth--
		s.first = false // the enclosing container has just had an item
		return false
	}
	if !s.first && !s.p.eat(',') {
		return false
	}
	s.first = false
	s.p.space()
	return true
}

// Uint reads a non-negative integer that fits in 64 bits, as
// json.Unmarshal reads one into a uint64.
func (s *Scanner) Uint() uint64 {
	if s.p.bad {
		return 0
	}
	return s.p.uint(64)
}

// String reads a string and returns its value: the literal's body itself,
// aliasing the scanned bytes, when it has no escape and is valid UTF-8; a
// new slice otherwise.
func (s *Scanner) String() []byte {
	if s.p.bad {
		return nil
	}
	start := s.p.i
	if !s.p.skipString() {
		return nil
	}
	body := s.p.b[start+1 : s.p.i-1]
	if !s.p.plain {
		body, _ = unquote(body)
	}
	return body
}

// Value validates one value of any type and returns its bytes, aliasing the
// scanned ones. Every number in it must fit a float64, as json.Unmarshal
// demands of a number it decodes into an interface.
func (s *Scanner) Value() []byte {
	if s.p.bad {
		return nil
	}
	start := s.p.i
	s.p.floats = true
	ok := s.p.skipValue(s.depth)
	s.p.floats = false
	if !ok {
		return nil
	}
	return s.p.b[start:s.p.i:s.p.i]
}

// Err reports why the walk stopped early; nil while it has not.
func (s *Scanner) Err() error {
	if !s.p.bad {
		return nil
	}
	return fmt.Errorf("amrpc: malformed JSON at byte %d of %d", s.p.i, len(s.p.b))
}

// Done ends the walk: it reports Err, or that something other than
// whitespace follows the value; nil when the value was well formed.
func (s *Scanner) Done() error {
	if !s.p.bad {
		s.p.space()
		if s.p.i != len(s.p.b) {
			s.p.fail()
		}
	}
	return s.Err()
}

// fitsFloat reports whether the number literal num, valid JSON, is within
// float64's range.
func fitsFloat(num []byte) bool {
	_, err := strconv.ParseFloat(string(num), 64)
	return err == nil
}
