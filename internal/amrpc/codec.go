package amrpc

// The wire codec: a hand-written encoder and decoder for the two frame
// types, each one pass over the bytes. The format is what encoding/json
// produced for the request and response structs — same member order, same
// omitempty rules, same string escaping — so peers built before and after
// this codec interoperate byte for byte; only the work per frame changed.
//
// Encoding appends into a caller-supplied buffer and computes the checksum
// once, over the bytes just written. Decoding validates the whole line as
// JSON, fills the struct directly, slices args and result out of the line
// as raw values, and verifies the checksum over the bytes received.
// Scalars are coded inline; anything else (objects, arrays, floats, strings
// with escapes or non-ASCII bytes) hands that one token to encoding/json,
// so generic decoding semantics are those of encoding/json.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"unicode/utf8"
)

// errChecksum marks a frame whose checksum did not verify. Receivers drop
// such frames silently: no field of a corrupt frame can be trusted, so the
// sender recovers by deadline + retry rather than by a correlated error.
var errChecksum = errors.New("amrpc: frame checksum mismatch")

// errMalformed marks a line that is not a well-formed frame.
var errMalformed = errors.New("amrpc: malformed frame")

// maxNesting bounds how deep arrays and objects may nest inside one member
// value, which bounds the decoder's recursion on hostile input.
const maxNesting = 64

const hexDigits = "0123456789abcdef"

// plainByte reports the ASCII bytes encoding/json copies into a string
// unescaped (with its default HTML escaping): everything from space up
// except the quote, the backslash and < > &.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a JSON string literal, escaped exactly as
// json.Marshal escapes it: control bytes, quote, backslash, < > &, U+2028
// and U+2029 escaped, invalid UTF-8 replaced by the \ufffd escape.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plainByte[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendValue appends the JSON encoding of one argument or result. Strings,
// booleans, nil and the integer types are written inline; every other type
// is json.Marshal's to encode, and to refuse.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendString(dst, x), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int8:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int16:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int32:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint8:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint16:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// encodeArgs appends the wire form of each positional argument to buf and
// returns the grown buffer with one raw value per argument, each a slice
// of it.
func encodeArgs(buf []byte, args []any) ([]byte, []json.RawMessage, error) {
	if len(args) == 0 {
		return buf, nil, nil
	}
	raws := make([]json.RawMessage, len(args))
	base := len(buf)
	for i, a := range args {
		start := len(buf)
		var err error
		if buf, err = appendValue(buf, a); err != nil {
			return buf, nil, fmt.Errorf("amrpc: encode arg %d: %w", i, err)
		}
		raws[i] = buf[start:]
	}
	// Re-slice against the final buffer: an append may have moved it.
	for i, r := range raws {
		raws[i] = buf[base : base+len(r) : base+len(r)]
		base += len(r)
	}
	return buf, raws, nil
}

// decodeArgs unmarshals wire arguments into generic values (numbers become
// float64, objects become map[string]any — the invocation's coercion
// helpers absorb this).
func decodeArgs(raw []json.RawMessage) ([]any, error) {
	out := make([]any, len(raw))
	for i, r := range raw {
		v, err := decodeValue(r)
		if err != nil {
			return nil, fmt.Errorf("amrpc: decode arg %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// decodeValue decodes one raw value the frame decoder sliced out of a line
// (so: valid JSON, no surrounding whitespace) into its generic form.
func decodeValue(raw []byte) (any, error) {
	switch string(raw) {
	case "null":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if n := len(raw); n >= 2 && raw[0] == '"' && raw[n-1] == '"' && isPlain(raw[1:n-1]) {
		return string(raw[1 : n-1]), nil
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// isPlain reports whether the body of a string literal is its own decoded
// value: printable ASCII with no escape.
func isPlain(body []byte) bool {
	for _, b := range body {
		if b < 0x20 || b >= utf8.RuneSelf || b == '\\' || b == '"' {
			return false
		}
	}
	return true
}

// appendRequest appends req as one sealed frame, without a line terminator.
// req.Sum is ignored: the checksum is computed here. Args must hold
// compact, valid JSON values, as encodeArgs produces.
func appendRequest(dst []byte, req *request) []byte {
	start := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, req.ID, 10)
	dst = append(dst, `,"component":`...)
	dst = appendString(dst, req.Component)
	dst = append(dst, `,"method":`...)
	dst = appendString(dst, req.Method)
	if len(req.Args) > 0 {
		dst = append(dst, `,"args":[`...)
		for i, a := range req.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, a...)
		}
		dst = append(dst, ']')
	}
	if req.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = appendString(dst, req.Token)
	}
	if req.Priority != 0 {
		dst = append(dst, `,"priority":`...)
		dst = strconv.AppendInt(dst, int64(req.Priority), 10)
	}
	if req.TimeoutMS != 0 {
		dst = append(dst, `,"timeout_ms":`...)
		dst = strconv.AppendInt(dst, req.TimeoutMS, 10)
	}
	if req.Fence != 0 {
		dst = append(dst, `,"fence":`...)
		dst = strconv.AppendUint(dst, req.Fence, 10)
	}
	return appendSum(dst, start)
}

// appendResponse is appendRequest for the return path. Result must hold one
// compact, valid JSON value, as appendValue produces.
func appendResponse(dst []byte, resp *response) []byte {
	start := len(dst)
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	if len(resp.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, resp.Result...)
	}
	if resp.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendString(dst, resp.Err)
	}
	if resp.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendString(dst, resp.Code)
	}
	if resp.RetryAfterMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, resp.RetryAfterMS, 10)
	}
	return appendSum(dst, start)
}

// appendSum closes the frame whose members start at dst[start]: the
// checksum covers those bytes plus the closing brace — the frame as it
// would read unsigned — and is appended as the last member. A checksum of
// zero is omitted like any zero member, which leaves the frame unsigned.
func appendSum(dst []byte, start int) []byte {
	dst = append(dst, '}')
	sum := crc32.ChecksumIEEE(dst[start:])
	if sum == 0 {
		return dst
	}
	dst = append(dst[:len(dst)-1], `,"sum":`...)
	dst = strconv.AppendUint(dst, uint64(sum), 10)
	return append(dst, '}')
}

// decodeRequest parses one wire line into req, verifying the integrity
// checksum when present. Unsigned frames (no sum, or sum 0) are accepted
// for compatibility with hand-rolled peers: any member order, whitespace
// between tokens, unknown members skipped. Args alias line.
//
// Whatever it accepts is what json.Unmarshal would have decoded. It refuses
// a few things json.Unmarshal tolerated: a member name that matches a known
// one only case-insensitively, null for a scalar member, a line that is
// just null, nesting deeper than maxNesting, and a signed frame whose sum
// is not the last member (errChecksum).
func decodeRequest(line []byte, req *request) error {
	*req = request{}
	p := frameParser{b: line}
	for p.next() {
		switch string(p.key) {
		case "id":
			req.ID = p.uint(64)
		case "component":
			req.Component = p.str()
		case "method":
			req.Method = p.str()
		case "args":
			req.Args = p.rawArray()
		case "token":
			req.Token = p.str()
		case "priority":
			req.Priority = int(p.int())
		case "timeout_ms":
			req.TimeoutMS = p.int()
		case "fence":
			req.Fence = p.uint(64)
		case "sum":
			req.Sum = p.sum()
		default:
			p.unknown(requestMembers)
		}
	}
	return p.finish(req.Sum)
}

// decodeResponse is decodeRequest for the return path. Result aliases line.
func decodeResponse(line []byte, resp *response) error {
	*resp = response{}
	p := frameParser{b: line}
	for p.next() {
		switch string(p.key) {
		case "id":
			resp.ID = p.uint(64)
		case "result":
			resp.Result = p.raw()
		case "err":
			resp.Err = p.str()
		case "code":
			resp.Code = p.str()
		case "retry_after_ms":
			resp.RetryAfterMS = p.int()
		case "sum":
			resp.Sum = p.sum()
		default:
			p.unknown(responseMembers)
		}
	}
	return p.finish(resp.Sum)
}

func memberNames(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

var (
	requestMembers  = memberNames("id", "component", "method", "args", "token", "priority", "timeout_ms", "fence", "sum")
	responseMembers = memberNames("id", "result", "err", "code", "retry_after_ms", "sum")
)

// frameParser walks the members of one frame's top-level object. A syntax
// or type error sets bad and stops the walk; finish reports it.
type frameParser struct {
	b     []byte
	i     int
	bad   bool
	plain bool // the string skipString last scanned was plain (see isPlain)

	started bool   // the opening brace has been consumed
	key     []byte // the current member's name, unquoted
	comma   int    // index of the comma before the current member; 0 for the first
	// sumComma is comma as it stood at the most recent sum member; sumLast
	// says no member followed it.
	sumComma int
	sumLast  bool
}

// next advances to the next member, leaving its name in key and the cursor
// on the first byte of its value. It returns false once the object has
// closed, or on an error.
func (p *frameParser) next() bool {
	if p.bad {
		return false
	}
	p.space()
	switch {
	case !p.started:
		p.started = true
		if !p.eat('{') {
			return false
		}
		p.space()
		if p.peek() == '}' {
			p.i++
			return false
		}
		p.comma = 0
	case p.peek() == '}':
		p.i++
		return false
	default:
		p.comma = p.i
		if !p.eat(',') {
			return false
		}
		p.space()
	}
	p.sumLast = false
	start := p.i
	if !p.skipString() {
		return false
	}
	p.key = p.b[start+1 : p.i-1]
	if !p.plain {
		var k string
		if json.Unmarshal(p.b[start:p.i], &k) != nil {
			return p.fail()
		}
		p.key = []byte(k)
	}
	p.space()
	if !p.eat(':') {
		return false
	}
	p.space()
	return true
}

// finish checks that nothing but whitespace follows the object and, for a
// signed frame, that the checksum holds over the bytes received: the line
// up to the comma before the sum member, plus the closing brace.
func (p *frameParser) finish(sum uint32) error {
	p.space()
	if p.bad || !p.started || p.i != len(p.b) {
		return errMalformed
	}
	if sum == 0 {
		return nil
	}
	if !p.sumLast || p.sumComma == 0 {
		return errChecksum
	}
	covered := crc32.Update(0, crc32.IEEETable, p.b[:p.sumComma])
	if crc32.Update(covered, crc32.IEEETable, closeBrace) != sum {
		return errChecksum
	}
	return nil
}

var closeBrace = []byte{'}'}

func (p *frameParser) fail() bool {
	p.bad = true
	return false
}

func (p *frameParser) peek() byte {
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

func (p *frameParser) eat(c byte) bool {
	if p.peek() != c {
		return p.fail()
	}
	p.i++
	return true
}

func (p *frameParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// unknown handles a member this frame type does not define: skipped, unless
// its name is a known one in another case, which json.Unmarshal would have
// stored into the field.
func (p *frameParser) unknown(known [][]byte) {
	for _, name := range known {
		if bytes.EqualFold(p.key, name) {
			p.fail()
			return
		}
	}
	p.skipValue(0)
}

// sum parses the checksum member and notes where the bytes it covers end.
func (p *frameParser) sum() uint32 {
	p.sumComma, p.sumLast = p.comma, true
	return uint32(p.uint(32))
}

// uint parses a non-negative integer member that must fit in bits bits.
func (p *frameParser) uint(bits int) uint64 {
	start := p.i
	if !p.skipInteger() {
		return 0
	}
	n, err := strconv.ParseUint(string(p.b[start:p.i]), 10, bits)
	if err != nil {
		p.fail()
	}
	return n
}

// int parses a signed 64-bit integer member.
func (p *frameParser) int() int64 {
	start := p.i
	if p.peek() == '-' {
		p.i++
	}
	if !p.skipInteger() {
		return 0
	}
	n, err := strconv.ParseInt(string(p.b[start:p.i]), 10, 64)
	if err != nil {
		p.fail()
	}
	return n
}

// skipInteger consumes the integer part of a JSON number: one zero, or a
// nonzero digit and any digits after it. A fraction or exponent is left
// for the caller's next token check to refuse.
func (p *frameParser) skipInteger() bool {
	switch c := p.peek(); {
	case c == '0':
		p.i++
	case '1' <= c && c <= '9':
		for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
			p.i++
		}
	default:
		return p.fail()
	}
	return true
}

// str parses a string member.
func (p *frameParser) str() string {
	start := p.i
	if !p.skipString() {
		return ""
	}
	if p.plain {
		return string(p.b[start+1 : p.i-1])
	}
	var s string
	if json.Unmarshal(p.b[start:p.i], &s) != nil {
		p.fail()
	}
	return s
}

// raw validates one value of any type and returns its bytes.
func (p *frameParser) raw() json.RawMessage {
	start := p.i
	if !p.skipValue(0) {
		return nil
	}
	return p.b[start:p.i:p.i]
}

// rawArray parses an array member into its raw elements; null decodes to
// nil, as it does for any slice.
func (p *frameParser) rawArray() []json.RawMessage {
	if p.peek() == 'n' {
		p.skipLiteral("null")
		return nil
	}
	if !p.eat('[') {
		return nil
	}
	p.space()
	if p.peek() == ']' {
		p.i++
		return []json.RawMessage{}
	}
	out := make([]json.RawMessage, 0, 4)
	for {
		start := p.i
		if !p.skipValue(1) {
			return nil
		}
		out = append(out, p.b[start:p.i:p.i])
		p.space()
		if p.peek() == ']' {
			p.i++
			return out
		}
		if !p.eat(',') {
			return nil
		}
		p.space()
	}
}

// skipValue validates one JSON value of any type, leaving the cursor just
// past it. depth counts the arrays and objects already open around it.
func (p *frameParser) skipValue(depth int) bool {
	switch c := p.peek(); {
	case c == '"':
		return p.skipString()
	case c == '{' || c == '[':
		return p.skipContainer(depth)
	case c == 't':
		return p.skipLiteral("true")
	case c == 'f':
		return p.skipLiteral("false")
	case c == 'n':
		return p.skipLiteral("null")
	case c == '-' || ('0' <= c && c <= '9'):
		return p.skipNumber()
	}
	return p.fail()
}

func (p *frameParser) skipLiteral(lit string) bool {
	if len(p.b)-p.i < len(lit) || string(p.b[p.i:p.i+len(lit)]) != lit {
		return p.fail()
	}
	p.i += len(lit)
	return true
}

// skipString validates a string literal: no raw control bytes, only the
// escapes JSON defines. Bytes above ASCII pass as they are — encoding/json
// does not require valid UTF-8 either. It records in plain whether the body
// is its own decoded value.
func (p *frameParser) skipString() bool {
	if !p.eat('"') {
		return false
	}
	p.plain = true
	for p.i < len(p.b) {
		c := p.b[p.i]
		p.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return p.fail()
		case c >= utf8.RuneSelf:
			p.plain = false
		case c == '\\':
			p.plain = false
			switch p.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p.i++
			case 'u':
				p.i++
				for k := 0; k < 4; k++ {
					if !isHex(p.peek()) {
						return p.fail()
					}
					p.i++
				}
			default:
				return p.fail()
			}
		}
	}
	return p.fail()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func (p *frameParser) skipNumber() bool {
	if p.peek() == '-' {
		p.i++
	}
	if !p.skipInteger() {
		return false
	}
	if p.peek() == '.' {
		p.i++
		if !p.skipDigitRun() {
			return false
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		p.i++
		if c := p.peek(); c == '+' || c == '-' {
			p.i++
		}
		if !p.skipDigitRun() {
			return false
		}
	}
	return true
}

// skipDigitRun consumes one or more digits.
func (p *frameParser) skipDigitRun() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	if p.i == start {
		return p.fail()
	}
	return true
}

// skipContainer validates an array or an object and everything inside it.
func (p *frameParser) skipContainer(depth int) bool {
	if depth >= maxNesting {
		return p.fail()
	}
	object := p.b[p.i] == '{'
	closer := byte(']')
	if object {
		closer = '}'
	}
	p.i++
	p.space()
	if p.peek() == closer {
		p.i++
		return true
	}
	for {
		if object {
			if !p.skipString() {
				return false
			}
			p.space()
			if !p.eat(':') {
				return false
			}
			p.space()
		}
		if !p.skipValue(depth + 1) {
			return false
		}
		p.space()
		if p.peek() == closer {
			p.i++
			return true
		}
		if !p.eat(',') {
			return false
		}
		p.space()
	}
}
