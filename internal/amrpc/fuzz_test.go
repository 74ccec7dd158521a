package amrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// The reference encoder: what this package did before codec.go — the frame
// through encoding/json's reflection twice, the checksum taken over the
// marshalling with Sum=0. The tests below hold the hand-written encoder to
// it byte for byte, and the decoder to json.Unmarshal; nothing outside the
// tests calls it.
//
// (The reference receiver re-marshalled what it had decoded and summed
// that. It thereby refused its own sender's frames whenever a string held
// invalid UTF-8: sent as the \ufffd escape, re-marshalled as the character.
// Summing the bytes received has no such case.)

func refSealRequest(req *request) ([]byte, error) {
	req.Sum = 0
	base, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	req.Sum = crc32.ChecksumIEEE(base)
	return json.Marshal(req)
}

func refSealResponse(resp *response) ([]byte, error) {
	resp.Sum = 0
	base, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	resp.Sum = crc32.ChecksumIEEE(base)
	return json.Marshal(resp)
}

// decodeRequest decodes a line as a new connection's reader does: no
// component registered, no method name seen yet.
func decodeRequest(line []byte, req *request) error {
	var none atomic.Pointer[map[string]hosted]
	none.Store(&map[string]hosted{})
	_, err := decodeRequestInterned(line, req, &nameCache{table: &none, methods: make(map[string]string)})
	return err
}

// encodeArgs is valueEncoder as a caller with no buffer to reuse would use
// it, the form FuzzSealRequest holds to the reference (FuzzSealResponse
// holds AppendValue to it).
func encodeArgs(buf []byte, args []any) ([]byte, []json.RawMessage, error) {
	if len(args) == 0 {
		return buf, nil, nil
	}
	e := valueEncoder{buf: buf}
	raws, err := e.addArgs(make([]json.RawMessage, 0, len(args)), args)
	return e.buf, raws, err
}

// awkward strings every seal fuzz target starts from: each escape class of
// encoding/json, invalid UTF-8, the JSONP separators, and nothing at all.
var awkward = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
	"tab\tnewline\ncr\rbell\x07del\x7fnul\x00bs\bff\f",
	"bad utf8 \xff\xfe tail \xc3", "sep \u2028 and \u2029", "caf\u00e9 \u65e5\u672c \U0001F600",
	"\ufffd literal replacement", strings.Repeat("x", 300),
}

// fuzzArgs builds one argument of every shape the codec treats differently
// from the fuzzer's scalars: inline strings, integers and booleans, and a
// float, an object and an array for encoding/json to handle.
func fuzzArgs(s string, n int64, f float64, b bool) []any {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		f = 0.5
	}
	return []any{s, n, int(n), uint64(n), uint8(n), b, nil, f,
		map[string]any{s: s, "n": f}, []any{s, b, nil}}
}

// refRaw marshals each argument the way the reference client did.
func refRaw(t testing.TB, args []any) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(args))
	for i, a := range args {
		b, err := json.Marshal(a)
		if err != nil {
			t.Fatalf("reference marshal of arg %d (%#v): %v", i, a, err)
		}
		out[i] = b
	}
	return out
}

// encoded is an argument already in wire form: the Appender a caller hands
// the client so that its bytes go into the frame verbatim.
type encoded []byte

func (e encoded) AppendJSON(dst []byte) ([]byte, error) { return append(dst, e...), nil }

// encodedSeeds are already-encoded arguments FuzzSealRequest starts from:
// canonical values of every type, values json.Marshal would re-space or
// re-escape, and values no frame can carry.
var encodedSeeds = []string{
	`{"from":"n1","domain":"alpha","term":3,"snapshot":"AAEC/w==","snap_seq":9,"entries":[{"seq":10,"term":3,"method":"put","args":["id-10",1.5,true,null,{"k":[]}]}]}`,
	`"plain"`, `"<escaped> 😀"`, `-12.5e3`, `true`, `null`, `[]`, `{}`, `[1,"two",[3]]`,
	`{ "spaced" : [ 1 , 2 ] }`, `"<raw & unescaped>"`, "\"caf\xc3\xa9 \xff\"", `1e999`,
	``, ` 1`, `1 `, `{"a":1}{"b":2}`, `{"a":}`, `"unterminated`, "[1,\n2]", "\"tab\there\"",
	strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1),
	strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting),
}

// FuzzSealRequest is the wire-compatibility pin for requests: for arbitrary
// members and arguments the encoder emits exactly the bytes the reference
// seal emits, and both decoders take the frame back to the same struct and
// the same generic arguments. An already-encoded argument (raw, when not
// nil) is checked on its way: the encoder refuses it unless it is one JSON
// value on one line, and then carries it verbatim — byte for byte the
// reference's frame when it is already as json.Marshal would write it.
func FuzzSealRequest(f *testing.F) {
	for i, s := range awkward {
		f.Add(uint64(i), s, "open", "", int64(i), 0.25, i%2 == 0, 0, int64(0), uint64(0), []byte(nil))
		f.Add(uint64(math.MaxUint64), "ticket", s, s, int64(math.MinInt64), -1e300, true, -7, int64(1500), uint64(math.MaxUint64), []byte(nil))
	}
	for i, s := range encodedSeeds {
		f.Add(uint64(i), "_cluster/n1", "sync-offer", "", int64(1), 0.5, false, 0, int64(2000), uint64(0), []byte(s))
	}
	f.Fuzz(func(t *testing.T, id uint64, component, method, token string, n int64, fl float64, b bool, priority int, timeoutMS int64, fence uint64, raw []byte) {
		args := fuzzArgs(component, n, fl, b)
		if n%3 == 0 {
			args = nil
		}
		refArgs := refRaw(t, args)
		if raw != nil {
			args = append(args, encoded(raw))
			refArgs = append(refArgs, json.RawMessage(raw))
		}

		buf, raws, err := encodeArgs(nil, args)
		carried := raw != nil && json.Valid(raw) && !bytes.ContainsRune(raw, '\n') &&
			len(bytes.TrimSpace(raw)) == len(raw) && nesting(raw) < maxNesting
		switch {
		case err != nil && carried:
			t.Fatalf("encodeArgs refused an argument it can carry (%v): %q", err, raw)
		case err != nil && raw != nil:
			return
		case err != nil:
			t.Fatalf("encodeArgs: %v", err)
		case raw != nil && !carried:
			t.Fatalf("encodeArgs accepted an argument no frame can carry: %q", raw)
		case raw != nil && !bytes.Equal(raws[len(raws)-1], raw):
			t.Fatalf("already-encoded argument not carried verbatim: %q became %q", raw, raws[len(raws)-1])
		}
		req := &request{ID: id, Component: component, Method: method, Args: raws,
			Token: token, Priority: priority, TimeoutMS: timeoutMS, Fence: fence}
		got := appendRequest(buf, req)[len(buf):]

		ref := &request{ID: id, Component: component, Method: method, Args: refArgs,
			Token: token, Priority: priority, TimeoutMS: timeoutMS, Fence: fence}
		want, err := refSealRequest(ref)
		if err != nil {
			t.Fatalf("reference seal: %v", err)
		}
		canonical := true
		if raw != nil {
			again, _ := json.Marshal(json.RawMessage(raw))
			canonical = bytes.Equal(again, raw)
		}
		if canonical && !bytes.Equal(got, want) {
			t.Fatalf("encoder diverged from the reference\n got %s\nwant %s", got, want)
		}

		var dec request
		if err := decodeRequest(got, &dec); err != nil {
			t.Fatalf("own frame rejected: %v\n%s", err, got)
		}
		var refDec request
		if err := json.Unmarshal(got, &refDec); err != nil {
			t.Fatalf("json.Unmarshal of the frame: %v", err)
		}
		if !reflect.DeepEqual(dec, refDec) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", dec, refDec)
		}
		gotArgs, argsErr := DecodeArgs(dec.Args)
		for i, r := range dec.Args {
			var v any
			if err := json.Unmarshal(r, &v); err != nil {
				if argsErr == nil {
					t.Fatalf("DecodeArgs accepted arg %d that encoding/json refuses (%v): %s", i, err, r)
				}
				return
			}
			if argsErr == nil && !reflect.DeepEqual(gotArgs[i], v) {
				t.Fatalf("arg %d decoded to %#v, reference %#v", i, gotArgs[i], v)
			}
		}
		if argsErr != nil {
			t.Fatalf("DecodeArgs refused what encoding/json decodes: %v", argsErr)
		}
	})
}

// FuzzSealResponse is FuzzSealRequest for the return path.
func FuzzSealResponse(f *testing.F) {
	for i, s := range awkward {
		f.Add(uint64(i), uint8(i), s, int64(i), 0.5, "", "", int64(0))
		f.Add(uint64(math.MaxUint64), uint8(i), "", int64(-1), 1e21, s, CodeOverloaded, int64(250))
	}
	f.Fuzz(func(t *testing.T, id uint64, pick uint8, s string, n int64, fl float64, errText, code string, retryMS int64) {
		results := append(fuzzArgs(s, n, fl, n%2 == 0), struct {
			Acked uint64 `json:"acked"`
		}{uint64(n)})
		result := results[int(pick)%len(results)]
		ref := &response{ID: id, Err: errText, Code: code, RetryAfterMS: retryMS}
		if pick < 200 { // the rest carry no result member at all
			ref.Result = refRaw(t, []any{result})[0]
		}
		want, err := refSealResponse(ref)
		if err != nil {
			t.Fatalf("reference seal: %v", err)
		}

		resp := &response{ID: id, Err: errText, Code: code, RetryAfterMS: retryMS}
		if pick < 200 {
			if resp.Result, err = AppendValue(nil, result); err != nil {
				t.Fatalf("AppendValue(%#v): %v", result, err)
			}
		}
		got := appendResponse(nil, resp)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder diverged from the reference\n got %s\nwant %s", got, want)
		}

		var dec response
		if err := decodeResponse(got, &dec); err != nil {
			t.Fatalf("own frame rejected: %v\n%s", err, got)
		}
		var refDec response
		if err := json.Unmarshal(want, &refDec); err != nil {
			t.Fatalf("json.Unmarshal of the reference frame: %v", err)
		}
		if !reflect.DeepEqual(dec, refDec) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", dec, refDec)
		}
		if len(dec.Result) > 0 {
			v, err := decodeValue(dec.Result)
			var refV any
			refErr := json.Unmarshal(dec.Result, &refV)
			if (err == nil) != (refErr == nil) || !reflect.DeepEqual(v, refV) {
				t.Fatalf("result decoded to %#v (%v), reference %#v (%v)", v, err, refV, refErr)
			}
		}
	})
}

// decodeSeeds are lines both decode fuzz targets start from: hand-rolled
// frames in every tolerated shape, each documented refusal, and garbage.
var decodeSeeds = []string{
	`{"id":1,"component":"ticket","method":"open","args":["ev",2]}`,
	`{"id":18446744073709551615,"component":"","method":""}`,
	`{"id":18446744073709551616}`, // one past uint64
	`{"id":1,"sum":12345}`,
	`{"sum":12345,"id":1}`,
	`{"sum":4294967296}`,
	`not json at all`,
	``,
	`null`,
	`[1,2,3]`,
	`{}`,
	` { "method" : "m" , "id" : 7 , "extra" : { "k" : [ 1 , 2.5e-3 , "é" ] } , "args" : [ ] } `,
	`{"args":[{"nested":{"deep":[1,2,3]}}],"result":{"a":[true,false,null]}}`,
	`{"args":null,"result":null,"id":3}`,
	`{"ID":1}`, `{"Result":1}`, `{"ſum":5}`, `{"toKen":"x"}`,
	`{"id":null}`, `{"component":null}`, `{"err":null}`, `{"priority":null}`,
	`{"id":9,"code":"shed","err":"x"}`,
	`{"id":1,"id":2,"args":[1],"args":["a","b"],"result":1,"result":"two"}`,
	`{"id":1.0}`, `{"id":1e2}`, `{"id":-0}`, `{"priority":-0}`, `{"id":01}`,
	`{"priority":-9223372036854775808,"timeout_ms":9223372036854775807,"retry_after_ms":-1}`,
	`{"priority":9223372036854775808}`,
	`{"component":"a\"b\\c\/d\b\f\n\r\t ","method":"😀 \ud83d x","err":"caf` + "é \xff" + `"}`,
	`{"component":"raw` + "\x01" + `control"}`,
	`{"method":"bad \x escape"}`, `{"method":"bad \u12g4"}`,
	`{"args":[1e999],"result":1e999}`,
	`{"args":[` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `]}`,
	`{"args":[` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `]}`,
	`{"result":` + strings.Repeat(`{"a":`, 200) + `1` + strings.Repeat(`}`, 200) + `}`,
	`{"id":4,"args":["x"]} trailing`,
	`{"id":4,"args":["x"],}`,
	`{"id":4 "args":["x"]}`,
}

// tolerated reports whether line falls in one of the documented classes the
// decoder refuses although json.Unmarshal accepts: it is null rather than
// an object; a member's name matches a known one only case-insensitively;
// a scalar member is null; or a member value nests deeper than maxNesting.
// scalars lists the scalar members' names, each between spaces.
func tolerated(line []byte, known [][]byte, scalars string) bool {
	if string(bytes.TrimSpace(line)) == "null" {
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		name, ok := tok.(string)
		var value json.RawMessage
		if err != nil || !ok || dec.Decode(&value) != nil {
			return false
		}
		exact := false
		for _, k := range known {
			if name == string(k) {
				exact = true
			} else if strings.EqualFold(name, string(k)) {
				return true
			}
		}
		if exact && string(value) == "null" && strings.Contains(scalars, " "+name+" ") {
			return true
		}
		if nesting(value) > maxNesting {
			return true
		}
	}
	return false
}

// nesting returns how deep arrays and objects nest in the JSON text b.
func nesting(b []byte) int {
	depth, deepest, inString := 0, 0, false
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && (c == '[' || c == '{'):
			if depth++; depth > deepest {
				deepest = depth
			}
		case !inString && (c == ']' || c == '}'):
			depth--
		}
	}
	return deepest
}

// FuzzDecodeRequest holds the request decoder to encoding/json on arbitrary
// bytes. It must never panic. What it accepts, json.Unmarshal accepts and
// decodes to the same struct; what it refuses as malformed, json.Unmarshal
// refuses too or the line is in a documented class; and a frame the
// reference encoder could have produced gets the reference's verdict.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	for _, s := range awkward {
		raws := refRaw(f, []any{s, 2, map[string]any{"k": s}})
		line, err := refSealRequest(&request{ID: 7, Component: "c", Method: s, Args: raws, Token: "tok", Priority: 3})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got request
		err := decodeRequest(data, &got)
		var want request
		jsonErr := json.Unmarshal(data, &want)
		switch {
		case err == nil:
			if jsonErr != nil {
				t.Fatalf("accepted a line json.Unmarshal refuses (%v): %q", jsonErr, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, json.Unmarshal %+v, line %q", got, want, data)
			}
			_, _ = DecodeArgs(got.Args) // may refuse a value (1e999); must not panic
		case errors.Is(err, errMalformed):
			if jsonErr == nil && !tolerated(data, requestMembers, " id component method token priority timeout_ms fence sum ") {
				t.Fatalf("refused a line json.Unmarshal accepts, outside the documented classes: %q", data)
			}
		case !errors.Is(err, errChecksum):
			t.Fatalf("unexpected error %v", err)
		}
		if jsonErr != nil {
			return
		}
		// A canonical frame — one the reference encoder emits for this very
		// struct — must get the reference's checksum verdict.
		canon := want
		if line, serr := refSealRequest(&canon); serr == nil && bytes.Equal(line, data) && err != nil {
			t.Fatalf("refused a reference-sealed frame (%v): %q", err, data)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the return path. It also
// checks the error-rehydration invariant: a response carrying a known error
// code must rehydrate into a RemoteError that errors.Is-matches the
// corresponding framework sentinel.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(`{"id":1,"result":"ok"}`))
	f.Add([]byte(`{"id":2,"err":"denied","code":"permission-denied"}`))
	f.Add([]byte(`{"id":3,"err":"gone","code":"no-such-code"}`))
	for _, s := range awkward {
		line, err := refSealResponse(&response{ID: 9, Result: refRaw(f, []any{s})[0], Err: s, Code: "circuit-open"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got response
		err := decodeResponse(data, &got)
		var want response
		jsonErr := json.Unmarshal(data, &want)
		switch {
		case err == nil:
			if jsonErr != nil {
				t.Fatalf("accepted a line json.Unmarshal refuses (%v): %q", jsonErr, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, json.Unmarshal %+v, line %q", got, want, data)
			}
		case errors.Is(err, errMalformed):
			if jsonErr == nil && !tolerated(data, responseMembers, " id err code retry_after_ms sum ") {
				t.Fatalf("refused a line json.Unmarshal accepts, outside the documented classes: %q", data)
			}
		case !errors.Is(err, errChecksum):
			t.Fatalf("unexpected error %v", err)
		}
		if jsonErr != nil {
			return
		}
		canon := want
		if line, serr := refSealResponse(&canon); serr == nil && bytes.Equal(line, data) && err != nil {
			t.Fatalf("refused a reference-sealed frame (%v): %q", err, data)
		}
		if err != nil {
			return
		}
		if got.Err == "" {
			if len(got.Result) > 0 {
				_, _ = decodeValue(got.Result)
			}
			return
		}
		remote := &RemoteError{Code: got.Code, Msg: got.Err}
		for _, c := range wireCodes {
			if c.code == got.Code {
				if !errors.Is(remote, c.err) {
					t.Fatalf("code %q did not rehydrate: errors.Is(%v, %v) = false",
						got.Code, remote, c.err)
				}
				return
			}
		}
		if remote.Unwrap() != nil {
			t.Fatalf("unknown code %q unwrapped to %v, want nil", got.Code, remote.Unwrap())
		}
	})
}

// FuzzDecodeValue holds the native value decoder to json.Unmarshal into an
// any on arbitrary bytes: it must never panic, it accepts exactly what
// json.Unmarshal accepts — except values nesting deeper than maxNesting,
// which it refuses — and what it accepts decodes to a deeply equal value.
func FuzzDecodeValue(f *testing.F) {
	for _, s := range awkward {
		quoted, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(quoted)
		f.Add([]byte(`{` + string(quoted) + `:[` + string(quoted) + `,"tail"]}`))
		f.Add([]byte(`"` + s + `"`)) // raw: control bytes and invalid UTF-8 as they are
	}
	for _, s := range []string{
		`"\ud83d\ude00"`, `"\ud83d"`, `"\ude00"`, `"\ud83d x"`, `"\ud83d\u0041"`,
		`"\ud83d\ud83d\ude00"`, `"\ude00\ud83d"`, `"\uD83D\uDE00"`, `"x\ud800"`,
		"\"\xff\xfe\xc3\"", "\"\xed\xa0\x80\"", "{\"\xff\":\"\xf0\x9f\"}", `{"\u00e9":"\u00e9"}`,
		`1e999`, `-1e999`, `1e-999`, `-0`, `-0.0`, `0.1e+2`, `-12345678901234567890.5E-3`,
		`01`, `1.`, `.5`, `+1`, `1e`, `--1`, `0x10`, `Infinity`, `NaN`,
		`{"a":1,"a":2}`, `{"a":{"b":1},"a":[true]}`, `{}`, `[]`, `[[],{}]`, `""`, `null`, ` true `, `false`,
		`[1,2,3,4,5,6,7,8,9,10]`, `{"a":[1,{"b":null}],"c":"d"}`,
		strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting),
		strings.Repeat("[", maxNesting+1) + strings.Repeat("]", maxNesting+1),
		strings.Repeat(`{"a":`, maxNesting) + `1` + strings.Repeat(`}`, maxNesting),
		``, ` `, `[`, `]`, `{"a"}`, `{"a":}`, `[1,]`, `{"a":1,}`, `"\x"`, `"\u12g4"`, `"a` + "\x01" + `"`, `1 2`, `tru`, `nul`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeValue(data)
		var want any
		jsonErr := json.Unmarshal(data, &want)
		switch {
		case err == nil && jsonErr != nil:
			t.Fatalf("accepted what json.Unmarshal refuses (%v): %q", jsonErr, data)
		case err != nil && jsonErr == nil && nesting(data) <= maxNesting:
			t.Fatalf("refused (%v) what json.Unmarshal accepts: %q", err, data)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoded %#v, json.Unmarshal %#v, input %q", got, want, data)
		}
	})
}

// TestSealedFramesRoundTrip pins the integrity format itself, in both
// directions: a sealed frame decodes cleanly, and any single-bit flip
// anywhere in it is either a parse failure or a checksum rejection — never
// a silently different frame.
func TestSealedFramesRoundTrip(t *testing.T) {
	reqLine, err := refSealRequest(&request{ID: 42, Component: "soak", Method: "put",
		Args: []json.RawMessage{json.RawMessage(`"op-1-2"`)}})
	if err != nil {
		t.Fatal(err)
	}
	respLine, err := refSealResponse(&response{ID: 42, Result: json.RawMessage(`"op-1-2"`),
		Err: "x", Code: CodeOverloaded, RetryAfterMS: 25})
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		name   string
		line   []byte
		reseal func(line []byte) ([]byte, error) // decode, then seal what was decoded
	}{
		{"request", reqLine, func(line []byte) ([]byte, error) {
			var req request
			if err := decodeRequest(line, &req); err != nil {
				return nil, err
			}
			return appendRequest(nil, &req), nil
		}},
		{"response", respLine, func(line []byte) ([]byte, error) {
			var resp response
			if err := decodeResponse(line, &resp); err != nil {
				return nil, err
			}
			return appendResponse(nil, &resp), nil
		}},
	}
	for _, fr := range frames {
		if again, err := fr.reseal(fr.line); err != nil || !bytes.Equal(again, fr.line) {
			t.Fatalf("%s: sealed frame did not round-trip: %v\n got %s\nwant %s", fr.name, err, again, fr.line)
		}
		for i := range fr.line {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), fr.line...)
				mut[i] ^= 1 << bit
				again, err := fr.reseal(mut)
				if err != nil {
					continue // rejected, as it should be
				}
				// The only mutations allowed to decode are ones that leave
				// every member what it was (a flip inside the sum member's
				// name makes the frame unsigned, not different).
				if !bytes.Equal(again, fr.line) {
					t.Fatalf("%s: bit flip at byte %d bit %d decoded to a different frame: %s", fr.name, i, bit, mut)
				}
			}
		}
	}
}

// TestCodecAllocations pins what the codec costs the heap: encoding into
// warm buffers nothing; decoding a request as a server connection's reader
// does — names interned, args array reused — nothing; decoding a response
// nothing; and decoding a result into a map only what outlives it.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	args := []any{"TT-1042", "printer on fire"}
	var eb encodeBuf
	if n := testing.AllocsPerRun(200, func() {
		eb.args.buf = eb.args.buf[:0]
		eb.raws, _ = eb.args.addArgs(eb.raws[:0], args)
	}); n != 0 {
		t.Errorf("encoding two arguments into a warm encodeBuf: %.0f allocs/op, want 0", n)
	}
	var results valueEncoder
	var ticket any = struct { // boxed once, as a component body returns it
		ID      string `json:"id"`
		Summary string `json:"summary"`
	}{"TT-1042", "printer on fire"}
	if n := testing.AllocsPerRun(200, func() {
		results.buf = results.buf[:0]
		_ = results.add(ticket)
	}); n != 0 {
		t.Errorf("encoding a struct result into a warm buffer: %.0f allocs/op, want 0", n)
	}
	req := &request{ID: 981, Component: "ticket", Method: "open", Args: eb.raws, TimeoutMS: 1500}
	resp := &response{ID: 981, Result: results.buf}
	frame := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		frame = appendRequest(frame[:0], req)
		frame = appendResponse(frame, resp)
	}); n != 0 {
		t.Errorf("encoding into a warm buffer: %.0f allocs/op, want 0", n)
	}

	srv := NewServer()
	if err := srv.Register(newEchoProxy(t, "ticket")); err != nil {
		t.Fatal(err)
	}
	names := nameCache{table: &srv.components, methods: make(map[string]string)}
	line := appendRequest(nil, req)
	var dec request
	if n := testing.AllocsPerRun(200, func() {
		if _, err := decodeRequestInterned(line, &dec, &names); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding a request with interned names: %.0f allocs/op, want 0", n)
	}
	if dec.Component != "ticket" || dec.Method != "open" || len(dec.Args) != 2 {
		t.Fatalf("decoded %+v", dec)
	}
	respLine := appendResponse(nil, resp)
	var decResp response
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeResponse(respLine, &decResp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding a result response: %.0f allocs/op, want 0", n)
	}
	var v any
	if n := testing.AllocsPerRun(200, func() {
		v, _ = decodeValue(decResp.Result)
	}); n > 5 {
		t.Errorf("decoding a two-string object: %.0f allocs/op, want <= 5 (one copy of its bytes, the map and its group, two string headers)", n)
	}
	if want := map[string]any{"id": "TT-1042", "summary": "printer on fire"}; !reflect.DeepEqual(v, want) {
		t.Fatalf("decoded %#v, want %#v", v, want)
	}
}
