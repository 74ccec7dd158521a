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
//
// Argument and result values are encoded by a valueEncoder: scalars inline,
// an Appender's own encoding verbatim once checked, anything else through a
// json.Encoder writing into the same buffer. They
// are decoded without encoding/json: decodeValue builds the generic values
// json.Unmarshal into an any would (float64, string, bool, nil, []any,
// map[string]any) in one pass, and the frame parser unquotes escaped
// strings itself.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"unicode/utf16"
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

// appendScalar appends the JSON encoding of v if it is a string, a boolean,
// nil or an integer, and reports whether it was one of those.
func appendScalar(dst []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), true
	case string:
		return appendString(dst, x), true
	case bool:
		return strconv.AppendBool(dst, x), true
	case int:
		return strconv.AppendInt(dst, int64(x), 10), true
	case int8:
		return strconv.AppendInt(dst, int64(x), 10), true
	case int16:
		return strconv.AppendInt(dst, int64(x), 10), true
	case int32:
		return strconv.AppendInt(dst, int64(x), 10), true
	case int64:
		return strconv.AppendInt(dst, x, 10), true
	case uint:
		return strconv.AppendUint(dst, uint64(x), 10), true
	case uint8:
		return strconv.AppendUint(dst, uint64(x), 10), true
	case uint16:
		return strconv.AppendUint(dst, uint64(x), 10), true
	case uint32:
		return strconv.AppendUint(dst, uint64(x), 10), true
	case uint64:
		return strconv.AppendUint(dst, x, 10), true
	}
	return dst, false
}

// valueEncoder appends the JSON encoding of arguments and results to buf,
// which its owner reuses from one frame to the next. Scalars are written
// inline; every other type goes through one json.Encoder bound to buf,
// which encodes or refuses it exactly as json.Marshal would and then
// writes a newline, dropped here.
type valueEncoder struct {
	buf  []byte
	json *json.Encoder // made at the first value that needs it
}

// Write appends p to buf: the json.Encoder's destination.
func (e *valueEncoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// add appends the encoding of v to buf.
func (e *valueEncoder) add(v any) error {
	if b, ok := appendScalar(e.buf, v); ok {
		e.buf = b
		return nil
	}
	if a, ok := v.(Appender); ok {
		return e.addEncoded(a)
	}
	if e.json == nil {
		e.json = json.NewEncoder(e)
	}
	if err := e.json.Encode(v); err != nil {
		return err
	}
	e.buf = e.buf[:len(e.buf)-1]
	return nil
}

// addArgs appends the wire form of each positional argument to buf and one
// raw value per argument, each a slice of buf, to raws.
func (e *valueEncoder) addArgs(raws []json.RawMessage, args []any) ([]json.RawMessage, error) {
	base, first := len(e.buf), len(raws)
	for i, a := range args {
		start := len(e.buf)
		if err := e.add(a); err != nil {
			return raws, fmt.Errorf("amrpc: encode arg %d: %w", i, err)
		}
		raws = append(raws, e.buf[start:])
	}
	// Re-slice against the final buffer: an append may have moved it.
	for i, r := range raws[first:] {
		raws[first+i] = e.buf[base : base+len(r) : base+len(r)]
		base += len(r)
	}
	return raws, nil
}

// decodeValue decodes one JSON value into the generic form json.Unmarshal
// into an any produces, and refuses what it refuses, except that arrays and
// objects may not nest more than maxNesting deep. Nothing in the result
// aliases raw. The strings of one value share one copy of its bytes (see
// valueDecoder.str), so one retained string keeps the whole value's bytes
// alive.
func decodeValue(raw []byte) (any, error) {
	d := valueDecoder{frameParser: frameParser{b: raw}}
	return d.decode()
}

// decode is decodeValue over d's bytes; strings that can share src are cut
// from it when it is already set to a copy of them.
func (d *valueDecoder) decode() (any, error) {
	d.space()
	v := d.value(0)
	d.space()
	switch {
	case d.err != nil:
		return nil, d.err
	case d.bad || d.i != len(d.b):
		return nil, errMalformed
	}
	return v, nil
}

// valueDecoder is decodeValue's single pass: the frame parser's validation,
// building each value as it is validated.
type valueDecoder struct {
	frameParser
	src   string // the value's bytes, copied at the first string that can share them
	items []any  // elements of the arrays still open, innermost last
	err   error  // why a well-formed value was refused
}

func (d *valueDecoder) value(depth int) any {
	switch c := d.peek(); {
	case c == '"':
		return d.str()
	case c == '{':
		return d.object(depth)
	case c == '[':
		return d.array(depth)
	case c == 't':
		d.skipLiteral("true")
		return true
	case c == 'f':
		d.skipLiteral("false")
		return false
	case c == 'n':
		d.skipLiteral("null")
		return nil
	case c == '-' || ('0' <= c && c <= '9'):
		return d.number()
	}
	d.fail()
	return nil
}

// str decodes a string literal. A literal whose body is its own value — no
// escape, valid UTF-8 — is a substring of src, so every such string of the
// value shares the one copy made for the first.
func (d *valueDecoder) str() string {
	start := d.i
	if !d.skipString() || d.i-start == 2 {
		return ""
	}
	if !d.plain {
		if v, changed := unquote(d.b[start+1 : d.i-1]); changed {
			return string(v)
		}
	}
	if d.src == "" {
		d.src = string(d.b)
	}
	return d.src[start+1 : d.i-1]
}

func (d *valueDecoder) number() any {
	start := d.i
	if !d.skipNumber() {
		return nil
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		// The syntax is JSON's, so only the magnitude can be wrong;
		// encoding/json refuses it too.
		d.err = fmt.Errorf("amrpc: number %s overflows float64", d.b[start:d.i])
		d.fail()
		return nil
	}
	return f
}

func (d *valueDecoder) object(depth int) any {
	if depth >= maxNesting {
		d.fail()
		return nil
	}
	d.i++
	m := make(map[string]any)
	d.space()
	if d.peek() == '}' {
		d.i++
		return m
	}
	for {
		k := d.str()
		d.space()
		if d.bad || !d.eat(':') {
			return nil
		}
		d.space()
		v := d.value(depth + 1)
		if d.bad {
			return nil
		}
		m[k] = v // a duplicate name: the last one wins, as in encoding/json
		d.space()
		if d.peek() == '}' {
			d.i++
			return m
		}
		if !d.eat(',') {
			return nil
		}
		d.space()
	}
}

func (d *valueDecoder) array(depth int) any {
	if depth >= maxNesting {
		d.fail()
		return nil
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		return []any{}
	}
	base := len(d.items)
	for {
		v := d.value(depth + 1)
		if d.bad {
			return nil
		}
		d.items = append(d.items, v)
		d.space()
		if d.peek() == ']' {
			d.i++
			out := slices.Clone(d.items[base:])
			clear(d.items[base:])
			d.items = d.items[:base]
			return out
		}
		if !d.eat(',') {
			return nil
		}
		d.space()
	}
}

// unquote returns the value of a string literal's body, as skipString
// validated it, the way encoding/json decodes it: escapes resolved, a
// surrogate pair joined into one rune, a lone surrogate and each byte of
// invalid UTF-8 replaced by U+FFFD. When that changes nothing it returns
// body itself and false; otherwise a new slice and true.
func unquote(body []byte) ([]byte, bool) {
	r := 0
	for r < len(body) {
		c := body[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRune(body[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(body) {
		return body, false
	}
	out := make([]byte, r, len(body)+utf8.UTFMax)
	copy(out, body)
	for r < len(body) {
		c := body[r]
		switch {
		case c == '\\':
			switch e := body[r+1]; e {
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
				rr := hex4(body[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					low := rune(-1)
					if r+1 < len(body) && body[r] == '\\' && body[r+1] == 'u' {
						low = hex4(body[r+2:])
					}
					if rr = utf16.DecodeRune(rr, low); rr != utf8.RuneError {
						r += 6 // a pair: the low half is consumed too
					}
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(body[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	return out, true
}

// hex4 reads the four hex digits that begin b, as skipString validated them.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// appendRequest appends req as one sealed frame, without a line terminator.
// req.Sum is ignored: the checksum is computed here. Args must hold
// compact, valid JSON values, as valueEncoder.addArgs produces.
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
// compact, valid JSON value, as valueEncoder.add produces.
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

// decodeRequestInterned parses one wire line into req, verifying the
// integrity checksum when present. Unsigned frames (no sum, or sum 0) are
// accepted for compatibility with hand-rolled peers: any member order,
// whitespace between tokens, unknown members skipped. Args alias line.
//
// Whatever it accepts is what json.Unmarshal would have decoded. It refuses
// a few things json.Unmarshal tolerated: a member name that matches a known
// one only case-insensitively, null for a scalar member, a line that is
// just null, nesting deeper than maxNesting, and a signed frame whose sum
// is not the last member (errChecksum).
//
// The component and method names come from names where it holds them,
// instead of being copied out of line. The raw args reuse the backing
// array of req.Args, so a reader decoding frame after frame into one
// request does not allocate it again. huge reports a number in the args
// beyond float64's range: a frame may carry one, DecodeArgs refuses it.
func decodeRequestInterned(line []byte, req *request, names *nameCache) (huge bool, err error) {
	args := req.Args[:0]
	*req = request{}
	p := frameParser{b: line}
	for p.next() {
		switch string(p.key) {
		case "id":
			req.ID = p.uint(64)
		case "component":
			req.Component = p.name(names.component)
		case "method":
			req.Method = p.name(names.method)
		case "args":
			p.floats, p.huge = true, false
			req.Args = p.rawArray(args)
			p.floats, huge = false, p.huge
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
	return huge, p.finish(req.Sum)
}

// decodeResponse is decodeRequestInterned for the return path. Result
// aliases line.
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
	b      []byte
	i      int
	bad    bool
	plain  bool // the string skipString last scanned is printable ASCII with no escape
	floats bool // skipNumber also checks that a number is within float64's range
	huge   bool // a number it checked was not

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
		p.key, _ = unquote(p.key)
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
	return p.text(start)
}

// name parses a string member that names something: when the literal is
// plain and intern holds its one copy of that name, the result is that copy.
func (p *frameParser) name(intern func([]byte) (string, bool)) string {
	start := p.i
	if !p.skipString() {
		return ""
	}
	if p.plain {
		if s, ok := intern(p.b[start+1 : p.i-1]); ok {
			return s
		}
	}
	return p.text(start)
}

// text returns a copy of the value of the string literal skipString just
// scanned from start.
func (p *frameParser) text(start int) string {
	body := p.b[start+1 : p.i-1]
	if !p.plain {
		body, _ = unquote(body)
	}
	return string(body)
}

// raw validates one value of any type and returns its bytes.
func (p *frameParser) raw() json.RawMessage {
	start := p.i
	if !p.skipValue(0) {
		return nil
	}
	return p.b[start:p.i:p.i]
}

// rawArray parses an array member into its raw elements, appended to
// out[:0]; null decodes to nil, as it does for any slice.
func (p *frameParser) rawArray(out []json.RawMessage) []json.RawMessage {
	if p.peek() == 'n' {
		p.skipLiteral("null")
		return nil
	}
	if !p.eat('[') {
		return nil
	}
	p.space()
	out = out[:0]
	if p.peek() == ']' {
		p.i++
		if out == nil {
			return []json.RawMessage{} // empty, not null
		}
		return out
	}
	if out == nil {
		out = make([]json.RawMessage, 0, 4)
	}
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
	start := p.i
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
	if p.floats && !fitsFloat(p.b[start:p.i]) {
		p.huge = true
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
