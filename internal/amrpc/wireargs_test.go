package amrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// parseArgs parses list, one JSON array, as the server parses a request's
// args member: huge reports a number beyond float64; ok is false when the
// frame parser refuses the list.
func parseArgs(list []byte) (raw []json.RawMessage, huge, ok bool) {
	p := frameParser{b: list, floats: true}
	raw = p.rawArray(nil)
	p.space()
	return raw, p.huge, !p.bad && p.i == len(list)
}

// errText is err's message, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameAccessors demands that every accessor of wire, an invocation reading
// its arguments in place, gives what it gives on decoded, one holding the
// list DecodeArgs made of them: the same value and the same error or none,
// at every index and one past each end, and then a deeply equal Args.
func sameAccessors(t testing.TB, wire, decoded *aspect.Invocation) {
	t.Helper()
	if wire.NumArgs() != decoded.NumArgs() {
		t.Fatalf("NumArgs: wire %d, decoded %d", wire.NumArgs(), decoded.NumArgs())
	}
	for i := -1; i <= decoded.NumArgs(); i++ {
		if w, d := wire.Arg(i), decoded.Arg(i); !reflect.DeepEqual(w, d) {
			t.Fatalf("Arg(%d): wire %#v, decoded %#v", i, w, d)
		}
		ws, wErr := wire.ArgString(i)
		ds, dErr := decoded.ArgString(i)
		if ws != ds || errText(wErr) != errText(dErr) {
			t.Fatalf("ArgString(%d): wire %q, %v; decoded %q, %v", i, ws, wErr, ds, dErr)
		}
		wi, wErr := wire.ArgInt(i)
		di, dErr := decoded.ArgInt(i)
		if wi != di || errText(wErr) != errText(dErr) {
			t.Fatalf("ArgInt(%d): wire %d, %v; decoded %d, %v", i, wi, wErr, di, dErr)
		}
		wf, wErr := wire.ArgFloat(i)
		df, dErr := decoded.ArgFloat(i)
		if wf != df || errText(wErr) != errText(dErr) {
			t.Fatalf("ArgFloat(%d): wire %v, %v; decoded %v, %v", i, wf, wErr, df, dErr)
		}
	}
	if w, d := wire.Args(), decoded.Args(); !reflect.DeepEqual(w, d) {
		t.Fatalf("Args: wire %#v, decoded %#v", w, d)
	}
}

// TestArgCoercionsOnTheWire is the coercion table of aspect's accessors on
// arguments as a frame carries them: each row's results are what both a
// wire-form invocation and one holding DecodeArgs' list give.
func TestArgCoercionsOnTheWire(t *testing.T) {
	type result struct {
		v  any // string, int or float64; nil for an error
		ok bool
	}
	for _, c := range []struct {
		arg           string
		str, int, flt result
	}{
		{`"TT-1"`, result{"TT-1", true}, result{}, result{}},
		{`"42"`, result{"42", true}, result{42, true}, result{42.0, true}},
		{`"2.5"`, result{"2.5", true}, result{}, result{2.5, true}},
		{`"café \"q\" \/"`, result{`café "q" /`, true}, result{}, result{}},
		{"\"bad \xff utf8\"", result{"bad � utf8", true}, result{}, result{}},
		{`""`, result{"", true}, result{}, result{}},
		{`7`, result{}, result{7, true}, result{7.0, true}},
		{`-0`, result{}, result{0, true}, result{0.0, true}},
		{`1e3`, result{}, result{1000, true}, result{1000.0, true}},
		{`9.5`, result{}, result{}, result{9.5, true}},
		{`true`, result{}, result{}, result{}},
		{`null`, result{}, result{}, result{}},
		{`[1]`, result{}, result{}, result{}},
		{`{"a":"b"}`, result{}, result{}, result{}},
	} {
		raw, huge, ok := parseArgs([]byte("[" + c.arg + "]"))
		if !ok || huge {
			t.Fatalf("%s: the frame parser refused it", c.arg)
		}
		list, err := DecodeArgs(raw)
		if err != nil {
			t.Fatal(err)
		}
		var w wireArgs
		wire := aspect.NewInvocation(context.Background(), "c", "m", nil)
		w.bind(wire, raw)
		decoded := aspect.NewInvocation(context.Background(), "c", "m", list)
		for _, inv := range []*aspect.Invocation{wire, decoded} {
			s, err := inv.ArgString(0)
			if got := (result{s, err == nil}); err != nil && c.str.ok || err == nil && got != c.str {
				t.Errorf("%s: ArgString = %q, %v, want %v", c.arg, s, err, c.str)
			}
			n, err := inv.ArgInt(0)
			if got := (result{n, err == nil}); err != nil && c.int.ok || err == nil && got != c.int {
				t.Errorf("%s: ArgInt = %d, %v, want %v", c.arg, n, err, c.int)
			}
			f, err := inv.ArgFloat(0)
			if got := (result{f, err == nil}); err != nil && c.flt.ok || err == nil && got != c.flt {
				t.Errorf("%s: ArgFloat = %v, %v, want %v", c.arg, f, err, c.flt)
			}
		}
		sameAccessors(t, wire, decoded)
		wire.Release()
		decoded.Release()
	}
}

// FuzzWireArgs holds the wire-form invocation to the decoded one on any
// args array the frame parser accepts: DecodeArgs refuses it exactly when
// the parser found a number beyond float64, which the server refuses
// before binding, and on the rest every accessor matches (sameAccessors).
// A string read in place must not alias the bytes it was read from: they
// are overwritten before it is compared.
func FuzzWireArgs(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, `["plain","two"]`, `["esc \" \\ \/ \b\f\n\r\t A é"]`,
		"[\"bad \xff\xfe utf8 \xc3\",\"\xed\xa0\x80\"]", `["😀","\ud83d","\ude00 x"]`,
		`[1e999]`, `[-1e999]`, `[{"a":[1e400]}]`, `[1e-999]`, `[-0]`, `[-0.0]`, `[0.1e+2]`,
		`[9007199254740993]`, `[1.5,"1.5","x",true,false,null]`, `["42",42,4.2e1,"4.2e1"]`,
		`[{"a":1,"a":2},[[],{}]]`, `[ "spaced" , 1 ]`, `[""]`,
		"[" + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + "]",
		"[" + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + "]",
		"[" + strings.Repeat(`{"a":`, maxNesting-1) + `"deep"` + strings.Repeat("}", maxNesting-1) + "]",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		line := append([]byte(nil), data...)
		raw, huge, ok := parseArgs(line)
		if !ok {
			return
		}
		list, err := DecodeArgs(raw)
		if (err != nil) != huge {
			t.Fatalf("%q: DecodeArgs %v, the frame parser found a number beyond float64: %v", data, err, huge)
		}
		if huge {
			return
		}
		var w wireArgs
		wire := aspect.NewInvocation(context.Background(), "c", "m", nil)
		w.bind(wire, raw)
		decoded := aspect.NewInvocation(context.Background(), "c", "m", list)
		strs := make([]string, len(raw))
		for i := range raw {
			strs[i], _ = wire.ArgString(i)
		}
		for i := range line {
			line[i] = 'x'
		}
		for i, s := range strs {
			if want, _ := decoded.ArgString(i); s != want {
				t.Fatalf("%q: ArgString(%d) read %q once its line was overwritten, want %q", data, i, s, want)
			}
		}
		// Restore the line: the accessors below decode from it again.
		copy(line, data)
		sameAccessors(t, wire, decoded)
		wire.Release()
		decoded.Release()
	})
}

// countingProxy is a proxy of the component svc whose method m echoes its
// arguments after a guard that counts the calls it sees.
func countingProxy(t *testing.T) (*proxy.Proxy, *atomic.Int64) {
	t.Helper()
	p := proxy.New(moderator.New("svc"))
	var seen atomic.Int64
	count := aspect.New("count", aspect.KindScheduling, func(*aspect.Invocation) aspect.Verdict {
		seen.Add(1)
		return aspect.Resume
	}, nil)
	if err := p.Moderator().Register("m", aspect.KindScheduling, count); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("m", func(inv *aspect.Invocation) (any, error) { return inv.Args(), nil }); err != nil {
		t.Fatal(err)
	}
	return p, &seen
}

// TestMalformedArgumentsRefusedBeforeAspects pins that arguments stay in
// wire form without a malformed one reaching an aspect: a number beyond
// float64 — which the frame parser lets through — and an argument nested
// past the bound are each refused bad-request, and no aspect ran for
// either; the call after them is served.
func TestMalformedArgumentsRefusedBeforeAspects(t *testing.T) {
	p, seen := countingProxy(t)
	addr := startServer(t, p)
	stub := dialClient(t, addr).Component("svc")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, arg := range []string{`1e999`, `-1e400`, `{"a":[1,1e999]}`} {
		_, err := stub.Invoke(ctx, "m", "fine", encoded(arg))
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeBadRequest {
			t.Fatalf("argument %s: err = %v, want a bad-request refusal", arg, err)
		}
	}

	// The client will not encode an argument nested past the bound, so
	// this frame is written by hand.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deep := strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting)
	if _, err := fmt.Fprintf(conn, `{"id":9,"component":"svc","method":"m","args":[%s]}`+"\n", deep); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := decodeResponse(line[:len(line)-1], &resp); err != nil || resp.Code != CodeBadRequest {
		t.Fatalf("argument nested %d deep: reply %q (%v), want bad-request", maxNesting, line, err)
	}
	if n := seen.Load(); n != 0 {
		t.Fatalf("an aspect ran %d times for refused arguments", n)
	}
	if _, err := stub.Invoke(ctx, "m", encoded(`1.7976931348623157e308`)); err != nil || seen.Load() != 1 {
		t.Fatalf("call after the refusals: %v, aspect ran %d times", err, seen.Load())
	}
}

// TestArgsCostIsLinearInArgumentCount serves one call of 1<<17 empty
// strings to a body that reads them all with Args, as the replication
// capture does. Finding an argument in the copy its string is cut from
// must not walk the arguments before it: that is 1<<34 steps here, tens of
// seconds, where a single walk takes milliseconds.
func TestArgsCostIsLinearInArgumentCount(t *testing.T) {
	p := proxy.New(moderator.New("svc"))
	if err := p.Bind("m", func(inv *aspect.Invocation) (any, error) { return len(inv.Args()), nil }); err != nil {
		t.Fatal(err)
	}
	stub := dialClient(t, startServer(t, p)).Component("svc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	args := make([]any, 1<<17)
	for i := range args {
		args[i] = ""
	}
	start := time.Now()
	got, err := stub.Invoke(ctx, "m", args...)
	if err != nil || got != float64(len(args)) {
		t.Fatalf("Args of %d arguments: %v, %v", len(args), got, err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Args of %d arguments took %v", len(args), d)
	}
}

// TestRecycledInvocationCarriesNoWireArgs pins that a record released after
// a call whose arguments it read in place carries neither them nor the copy
// its strings were cut from into its next call. In process, the released
// record holds no arguments and a reader set on a new record reads only its
// own; over amrpc, where one reader serves each worker's calls in turn,
// every call sees its own arguments, and a call without any sees none.
func TestRecycledInvocationCarriesNoWireArgs(t *testing.T) {
	t.Run("in process", func(t *testing.T) {
		var w wireArgs
		for i := 0; i < 200; i++ {
			first, _, _ := parseArgs([]byte(fmt.Sprintf(`["first-%04d","x"]`, i)))
			inv := aspect.NewInvocation(context.Background(), "c", "m", nil)
			w.bind(inv, first)
			if s, err := inv.ArgString(0); err != nil || s != fmt.Sprintf("first-%04d", i) {
				t.Fatalf("round %d: ArgString = %q, %v", i, s, err)
			}
			kept := inv
			inv.Release()
			if kept.NumArgs() != 0 || kept.Args() != nil || kept.Arg(0) != nil {
				t.Fatalf("round %d: released record keeps %d args", i, kept.NumArgs())
			}
			next := aspect.NewInvocation(context.Background(), "c", "m", []any{"in-process"})
			if s, err := next.ArgString(0); next.NumArgs() != 1 || err != nil || s != "in-process" {
				t.Fatalf("round %d: next record reads %d args, %q, %v", i, next.NumArgs(), s, err)
			}
			next.Release()
			second, _, _ := parseArgs([]byte(fmt.Sprintf(`["later-%04d","y"]`, i)))
			inv = aspect.NewInvocation(context.Background(), "c", "m", nil)
			w.bind(inv, second)
			if s, err := inv.ArgString(0); err != nil || s != fmt.Sprintf("later-%04d", i) {
				t.Fatalf("round %d: the reader's next call reads %q, %v", i, s, err)
			}
			inv.Release()
		}
	})

	t.Run("over amrpc", func(t *testing.T) {
		p := proxy.New(moderator.New("svc"))
		if err := p.Bind("m", func(inv *aspect.Invocation) (any, error) {
			s, _ := inv.ArgString(0)
			return fmt.Sprintf("%d:%s", inv.NumArgs(), s), nil
		}); err != nil {
			t.Fatal(err)
		}
		stub := dialClient(t, startServer(t, p)).Component("svc")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		expect := func(want string, args ...any) {
			t.Helper()
			if got, err := stub.Invoke(ctx, "m", args...); err != nil || got != want {
				t.Fatalf("m%q = %v, %v, want %q", args, got, err, want)
			}
		}
		for i := 0; i < 200; i++ {
			first := fmt.Sprintf("first-%04d", i)
			expect("2:"+first, first, "x")
			expect("0:")
			later := fmt.Sprintf("later-%04d", i)
			expect("1:"+later, later)
		}
	})
}

// TestKeptArgStringDoesNotAliasRequestLine keeps a string a body read with
// ArgString and sends 64 more frames of the same length through the same
// connection, whose request lines the server recycles: a string that
// aliased its line would now read as a later call's argument.
func TestKeptArgStringDoesNotAliasRequestLine(t *testing.T) {
	var (
		mu   sync.Mutex
		kept []string
	)
	p := proxy.New(moderator.New("svc"))
	if err := p.Bind("keep", func(inv *aspect.Invocation) (any, error) {
		s, err := inv.ArgString(0)
		mu.Lock()
		kept = append(kept, s)
		mu.Unlock()
		return nil, err
	}); err != nil {
		t.Fatal(err)
	}
	stub := dialClient(t, startServer(t, p)).Component("svc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i <= 64; i++ {
		tag := "later"
		if i == 0 {
			tag = "first"
		}
		if _, err := stub.Invoke(ctx, "keep", fmt.Sprintf("%s-%04d", tag, i), "tail"); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != 65 || kept[0] != "first-0000" {
		t.Fatalf("after 64 more frames the first call's string reads %q", kept[0])
	}
	for i, s := range kept[1:] {
		if want := fmt.Sprintf("later-%04d", i+1); s != want {
			t.Fatalf("call %d kept %q, want %q", i+1, s, want)
		}
	}
}
