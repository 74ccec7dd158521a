package statesync

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
)

// served is an amrpc component named svc whose every method runs the
// function on the call's invocation, its arguments still in the wire form
// their frame carried.
type served func(*aspect.Invocation) (any, error)

func (served) Name() string                               { return "svc" }
func (s served) Call(inv *aspect.Invocation) (any, error) { return s(inv) }

// serve serves body as svc on a loopback amrpc server and returns a stub
// that calls it.
func serve(tb testing.TB, body served) *amrpc.Stub {
	tb.Helper()
	srv := amrpc.NewServer()
	if err := srv.RegisterComponent(body); err != nil {
		tb.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	tb.Cleanup(srv.Close)
	c, err := amrpc.Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	return c.Component("svc")
}

// capturedBoth is one served call's effect captured twice: from the wire
// form its frame carried, then from the list Args decodes. An entry is the
// zero Entry when its capture was refused.
type capturedBoth struct {
	wire, list       Entry
	wireErr, listErr error
}

// captureBoth captures inv's arguments in both forms, each into a log of
// its own.
func captureBoth(inv *aspect.Invocation) capturedBoth {
	var c capturedBoth
	capture := func(args effectArgs, e *Entry) error {
		l := NewLog("d", 16)
		if _, err := l.add(1, "m", args); err != nil {
			return err
		}
		*e = l.ReadFrom(0, 1)[0]
		return nil
	}
	c.wireErr = capture(effectArgs{wire: inv.Wire()}, &c.wire)
	c.listErr = capture(effectArgs{list: inv.Args()}, &c.list)
	return c
}

// nestedArg is an array nested n deep.
func nestedArg(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// FuzzCaptureWireForm holds the capture of a served call's arguments in
// the wire form their frame carried to the capture of the list Args
// decodes, on any arguments the client sends and the server accepts. Both
// are refused alike — an argument nested too deep for an offer — or both
// are kept, and then the wire form's entry replays, decoded as the
// cluster's replay decodes it, to what the list's does, and a successor's
// HandleOffer keeps it byte for byte.
func FuzzCaptureWireForm(f *testing.F) {
	for _, s := range []string{
		`{ "spaced" : [ 1 , 2 ] }`, `"\u0041"`, `"\ud800"`, `"\udc00 lone \ud83d"`, "\"bad \xff\xfe utf8 \xc3\"",
		`1.0`, `1e2`, `-0`, `-0.0`, `{"a":1,"a":2}`, `9007199254740993`, `"plain"`, `null`, `[]`, `{}`,
		nestedArg(maxDepth - argDepth - 1), nestedArg(maxDepth - argDepth), nestedArg(maxDepth - argDepth + 1),
	} {
		f.Add([]byte(s), []byte{})
	}
	f.Add([]byte(`"first"`), []byte(`{"x":[1.0,-0,"é"]}`))
	f.Add([]byte(`"fits"`), []byte(nestedArg(maxDepth-argDepth)))
	got := make(chan capturedBoth, 1)
	stub := serve(f, func(inv *aspect.Invocation) (any, error) {
		got <- captureBoth(inv)
		return nil, nil
	})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		args := []json.RawMessage{a}
		if len(b) > 0 {
			args = append(args, b)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := stub.InvokeRaw(ctx, "m", args, nil); err != nil {
			select {
			case <-got: // refused after the body ran
			default:
			}
			return // the client would not send them, or the server would not accept them
		}
		c := <-got
		if (c.wireErr == nil) != (c.listErr == nil) {
			t.Fatalf("args %q: wire-form capture %v, list capture %v", args, c.wireErr, c.listErr)
		}
		if c.wireErr != nil {
			return
		}
		if w, l := replayed(t, c.wire), replayed(t, c.list); !reflect.DeepEqual(w, l) {
			t.Fatalf("args %q: wire-form entry %s replays %#v, list entry %s replays %#v", args, c.wire.Args, w, c.list.Args, l)
		}
		raw, err := Offer{From: "A", Domain: "d", Term: 1, Entries: []Entry{c.wire}}.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		m := newReceiver(t)
		if _, err := m.HandleOffer(raw); err != nil {
			t.Fatalf("args %q: successor refused offer %s: %v", args, raw, err)
		}
		if r := resume(m, "d"); len(r.entries) != 1 || !bytes.Equal(r.entries[0].Args, c.wire.Args) {
			t.Fatalf("args %q: successor holds %+v, want the entry's args %s", args, r.entries, c.wire.Args)
		}
	})
}
