package amrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aspect"
)

// rawEcho takes the arguments of its method "raw" as wire bytes and returns
// copies of them; every other method gets decoded values and returns them.
// A result that is already encoded goes back verbatim.
type rawEcho struct{}

func (rawEcho) Name() string               { return "rawecho" }
func (rawEcho) RawArgs(method string) bool { return method == "raw" }

func (rawEcho) Call(inv *aspect.Invocation) (any, error) {
	switch inv.Method() {
	case "raw":
		out := make([]any, inv.NumArgs())
		for i, a := range inv.Args() {
			r, ok := a.(json.RawMessage)
			if !ok {
				return nil, fmt.Errorf("arg %d reached a raw method as %T", i, a)
			}
			out[i] = string(r) // a copy: r aliases the request line
		}
		return out, nil
	case "encoded":
		s, err := inv.ArgString(0)
		return encoded(s), err
	}
	return inv.Args(), nil
}

// failing is an Appender whose encoding fails.
type failing struct{}

func (failing) AppendJSON(dst []byte) ([]byte, error) {
	return append(dst, `{"half":`...), errors.New("cannot encode")
}

// TestRawArgumentsAndEncodedValues pins both halves of the raw-argument
// surface over a live connection. A RawComponent's chosen method receives
// each argument as the bytes the frame carried — an already-encoded
// argument exactly as its Appender wrote it, escapes and spacing included —
// while its other methods get decoded values as before. An Appender's bytes
// go into the frame verbatim; one that fails, or writes something that is
// not one JSON value on one line, fails its call before anything is sent,
// and the connection serves the next call.
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
