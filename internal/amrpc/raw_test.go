package amrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aspect"
)

// rawEcho is a RawComponent. Its method "raw" returns each argument's wire
// bytes as a string; "encoded" returns its string argument as the result's
// bytes, verbatim; every other method decodes its arguments and returns
// them.
type rawEcho struct{}

func (rawEcho) Name() string { return "rawecho" }

func (rawEcho) Call(inv *aspect.Invocation) (any, error) {
	return nil, fmt.Errorf("%s reached Call", inv.Method())
}

func (rawEcho) CallRaw(inv *aspect.Invocation, call RawCall, dst []byte) ([]byte, error) {
	if inv.NumArgs() != 0 {
		return dst, fmt.Errorf("a raw call's invocation holds %d decoded arguments", inv.NumArgs())
	}
	switch inv.Method() {
	case "raw":
		dst = append(dst, '[')
		for i, r := range call.Args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, string(r))
		}
		return append(dst, ']'), nil
	case "encoded":
		var s Scanner
		s.Reset(call.Args[0])
		body := s.String()
		if err := s.Done(); err != nil {
			return dst, err
		}
		return append(dst, body...), nil
	}
	args, err := DecodeArgs(call.Args)
	if err != nil {
		return dst, err
	}
	return AppendValue(dst, args)
}

// failing is an Appender whose encoding fails.
type failing struct{}

func (failing) AppendJSON(dst []byte) ([]byte, error) {
	return append(dst, `{"half":`...), errors.New("cannot encode")
}

// TestRawArgumentsAndEncodedValues pins both halves of the raw-call surface
// over a live connection. A RawComponent receives each argument as the
// bytes the frame carried — an already-encoded argument exactly as its
// Appender wrote it, escapes and spacing included — and decodes them only
// if it chooses to; the bytes it appends are the result, verbatim, unless
// they are not one JSON value on one line. An Appender's bytes go into the
// frame verbatim; one that fails, or writes something that is not one JSON
// value on one line, fails its call before anything is sent, and the
// connection serves the next call.
func TestRawArgumentsAndEncodedValues(t *testing.T) {
	srv := NewServer()
	if err := srv.RegisterComponent(rawEcho{}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	stub := dialClient(t, ln.Addr().String()).Component("rawecho")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	args := []any{"s<&>", 1.5, encoded(`{ "k" : [1, "é"] }`), map[string]any{"a": 1}}
	got, err := stub.Invoke(ctx, "raw", args...)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{`"s\u003c\u0026\u003e"`, `1.5`, `{ "k" : [1, "é"] }`, `{"a":1}`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("raw method saw %#v, want %#v", got, want)
	}
	got, err = stub.Invoke(ctx, "plain", args...)
	if err != nil {
		t.Fatal(err)
	}
	decoded := []any{"s<&>", 1.5, map[string]any{"k": []any{1.0, "é"}}, map[string]any{"a": 1.0}}
	if !reflect.DeepEqual(got, decoded) {
		t.Fatalf("plain method saw %#v, want %#v", got, decoded)
	}
	got, err = stub.Invoke(ctx, "encoded", `{"result":[true,null]}`)
	if err != nil || !reflect.DeepEqual(got, map[string]any{"result": []any{true, nil}}) {
		t.Fatalf("encoded result: %#v, %v", got, err)
	}

	for _, bad := range []any{failing{}, encoded(`{`), encoded("[1,\n2]"), encoded(` 1`), encoded(``),
		encoded(strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting))} {
		if _, err := stub.Invoke(ctx, "raw", bad); err == nil || errors.Is(err, ErrTransport) {
			t.Fatalf("argument %q: err = %v, want an encoding error", bad, err)
		}
	}
	if _, err := stub.Invoke(ctx, "encoded", "{"); err == nil || !strings.Contains(err.Error(), "unencodable result") {
		t.Fatalf("unencodable result: err = %v", err)
	}
	if got, err := stub.Invoke(ctx, "raw", encoded(`"after"`)); err != nil || !reflect.DeepEqual(got, []any{`"after"`}) {
		t.Fatalf("call after refused ones: %#v, %v", got, err)
	}
}
