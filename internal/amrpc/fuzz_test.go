package amrpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
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

// FuzzSealRequest is the wire-compatibility pin for requests: for arbitrary
// members and arguments the encoder emits exactly the bytes the reference
// seal emits, and both decoders take the frame back to the same struct and
// the same generic arguments.
func FuzzSealRequest(f *testing.F) {
	for i, s := range awkward {
		f.Add(uint64(i), s, "open", "", int64(i), 0.25, i%2 == 0, 0, int64(0), uint64(0))
		f.Add(uint64(math.MaxUint64), "ticket", s, s, int64(math.MinInt64), -1e300, true, -7, int64(1500), uint64(math.MaxUint64))
	}
	f.Fuzz(func(t *testing.T, id uint64, component, method, token string, n int64, fl float64, b bool, priority int, timeoutMS int64, fence uint64) {
		args := fuzzArgs(component, n, fl, b)
		if n%3 == 0 {
			args = nil
		}
		ref := &request{ID: id, Component: component, Method: method, Args: refRaw(t, args),
			Token: token, Priority: priority, TimeoutMS: timeoutMS, Fence: fence}
		want, err := refSealRequest(ref)
		if err != nil {
			t.Fatalf("reference seal: %v", err)
		}

		buf, raws, err := encodeArgs(nil, args)
		if err != nil {
			t.Fatalf("encodeArgs: %v", err)
		}
		req := &request{ID: id, Component: component, Method: method, Args: raws,
			Token: token, Priority: priority, TimeoutMS: timeoutMS, Fence: fence}
		got := appendRequest(buf, req)[len(buf):]
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder diverged from the reference\n got %s\nwant %s", got, want)
		}

		var dec request
		if err := decodeRequest(got, &dec); err != nil {
			t.Fatalf("own frame rejected: %v\n%s", err, got)
		}
		var refDec request
		if err := json.Unmarshal(want, &refDec); err != nil {
			t.Fatalf("json.Unmarshal of the reference frame: %v", err)
		}
		if !reflect.DeepEqual(dec, refDec) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", dec, refDec)
		}
		gotArgs, err := decodeArgs(dec.Args)
		if err != nil {
			t.Fatalf("decodeArgs: %v", err)
		}
		for i, r := range dec.Args {
			var v any
			if err := json.Unmarshal(r, &v); err != nil {
				t.Fatalf("reference decode of arg %d: %v", i, err)
			}
			if !reflect.DeepEqual(gotArgs[i], v) {
				t.Fatalf("arg %d decoded to %#v, reference %#v", i, gotArgs[i], v)
			}
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
			if resp.Result, err = appendValue(nil, result); err != nil {
				t.Fatalf("appendValue(%#v): %v", result, err)
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
		depth, deepest, inString := 0, 0, false
		for i := 0; i < len(value); i++ {
			switch c := value[i]; {
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
		if deepest > maxNesting {
			return true
		}
	}
	return false
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
			_, _ = decodeArgs(got.Args) // may refuse a value (1e999); must not panic
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
		line, err := refSealResponse(&response{ID: 9, Result: refRaw(f, []any{s})[0], Err: s, Code: CodeShed})
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
		if sentinel, ok := codeToSentinel[got.Code]; ok {
			if !errors.Is(remote, sentinel) {
				t.Fatalf("code %q did not rehydrate: errors.Is(%v, %v) = false",
					got.Code, remote, sentinel)
			}
		} else if remote.Unwrap() != nil {
			t.Fatalf("unknown code %q unwrapped to %v, want nil", got.Code, remote.Unwrap())
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

// TestCodecAllocations pins what the codec costs the heap: encoding into a
// warm buffer nothing, decoding a request only what outlives the line — the
// component and method strings and the slice of raw args.
func TestCodecAllocations(t *testing.T) {
	_, raws, err := encodeArgs(nil, []any{"TT-1042", "printer on fire"})
	if err != nil {
		t.Fatal(err)
	}
	req := &request{ID: 981, Component: "ticket", Method: "open", Args: raws, TimeoutMS: 1500}
	resp := &response{ID: 981, Result: raws[0]}
	frame := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(200, func() {
		frame = appendRequest(frame[:0], req)
		frame = appendResponse(frame, resp)
	}); n != 0 {
		t.Errorf("encoding into a warm buffer: %.0f allocs/op, want 0", n)
	}
	scalars, scratch := []any{nil, true, 7}, make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		scratch, _, _ = encodeArgs(scratch[:0], scalars)
	}); n > 1 {
		t.Errorf("encodeArgs: %.0f allocs/op, want at most the raw slice", n)
	}

	line := appendRequest(nil, req)
	var dec request
	if n := testing.AllocsPerRun(200, func() {
		if err := decodeRequest(line, &dec); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decoding a two-string-arg request: %.0f allocs/op, want <= 3", n)
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
}
