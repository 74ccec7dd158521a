package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/amrpc"
)

// rawArg is an argument already in wire form: the client carries its bytes
// into the frame verbatim.
type rawArg []byte

func (r rawArg) AppendJSON(dst []byte) ([]byte, error) { return append(dst, r...), nil }

// relayRig is a two-node plane with state sync off and an external amrpc
// client dialled to the node that does not own the alpha domain, so every
// alpha call the client makes is relayed by that entry node to the owner.
type relayRig struct {
	entry, owner *Node
	ownerLedger  *ledgerBackend
	stub         *amrpc.Stub
}

// startRelayRig boots the rig; mutate, when not nil, adjusts each node's
// configuration.
func startRelayRig(t testing.TB, mutate func(*Config)) *relayRig {
	t.Helper()
	namingAddr := startNaming(t)
	config := func(cfg *Config) {
		cfg.DisableStateSync = true
		if mutate != nil {
			mutate(cfg)
		}
	}
	b1, n1 := startLedgerNode(t, "n1", namingAddr, config)
	b2, n2 := startLedgerNode(t, "n2", namingAddr, config)
	r := &relayRig{entry: n2, owner: n1, ownerLedger: b1}
	if waitOwnership(t, n1, n2)["alpha"] == n2 {
		r.entry, r.owner, r.ownerLedger = n1, n2, b2
	}
	c, err := amrpc.Dial(r.entry.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	r.stub = c.Component(r.entry.cfg.Component)
	return r
}

// codeOf is the wire code of a call's error, "" for none.
func codeOf(err error) string {
	var re *amrpc.RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	if err != nil {
		return "local: " + err.Error()
	}
	return ""
}

// checkRelay makes one echo call twice — relayed, the external client's
// argument bytes passed through the entry node verbatim, and through
// Node.Invoke on the same entry node, each argument decoded first as
// json.Unmarshal decodes it (left in wire form when it does not decode) —
// and demands that the owner's body saw the same arguments both times, that
// they are json.Unmarshal's, and that both callers got the same result or
// the same refusal. It reports false when the client refused to send the
// arguments at all.
func (r *relayRig) checkRelay(t testing.TB, raws ...[]byte) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	relayedArgs := make([]any, len(raws))
	directArgs := make([]any, len(raws))
	want := make([]any, len(raws))
	decodable := true
	for i, raw := range raws {
		relayedArgs[i] = rawArg(raw)
		if err := json.Unmarshal(raw, &want[i]); err != nil {
			decodable = false
			directArgs[i] = rawArg(raw)
		} else {
			directArgs[i] = want[i]
		}
	}

	seen := len(r.ownerLedger.echoed(0))
	relayed, relayErr := r.stub.Invoke(ctx, ledgerEcho, relayedArgs...)
	var re *amrpc.RemoteError
	if relayErr != nil && !errors.As(relayErr, &re) {
		if errors.Is(relayErr, amrpc.ErrTransport) || ctx.Err() != nil {
			t.Fatalf("relayed call failed in transit: %v", relayErr)
		}
		return false // the client would not put these bytes in a frame
	}
	relayedSaw := r.ownerLedger.echoed(seen)
	direct, directErr := r.entry.Invoke(ctx, ledgerEcho, directArgs...)
	directSaw := r.ownerLedger.echoed(seen + len(relayedSaw))

	if codeOf(relayErr) != codeOf(directErr) {
		t.Fatalf("args %q: relayed err %v, direct err %v", raws, relayErr, directErr)
	}
	if !decodable {
		if !errors.Is(relayErr, amrpc.ErrBadRequest) || len(relayedSaw)+len(directSaw) != 0 {
			t.Fatalf("args %q do not decode: relayed err %v (body ran %d times), want bad-request",
				raws, relayErr, len(relayedSaw)+len(directSaw))
		}
		return true
	}
	if relayErr != nil {
		return true // refused alike; the gate aborts a string ending in -bad
	}
	if len(relayedSaw) != 1 || len(directSaw) != 1 {
		t.Fatalf("args %q: body ran %d times relayed, %d direct", raws, len(relayedSaw), len(directSaw))
	}
	if !reflect.DeepEqual(relayedSaw[0], want) || !reflect.DeepEqual(directSaw[0], want) {
		t.Fatalf("args %q: owner saw %#v relayed, %#v direct; json.Unmarshal gives %#v",
			raws, relayedSaw[0], directSaw[0], want)
	}
	var result any // the echo's: its first argument
	if len(want) > 0 {
		result = want[0]
	}
	if !reflect.DeepEqual(relayed, direct) || !reflect.DeepEqual(relayed, result) {
		t.Fatalf("args %q: result %#v relayed, %#v direct, want %#v", raws, relayed, direct, result)
	}
	return true
}

// relayCases are argument lists in wire form: strings with escapes,
// separators and invalid UTF-8, numbers at float64's edges and past them,
// null, empty containers, an argument nested 63 deep (the deepest a frame
// carries), and values of every wire type as the echoed result.
var relayCases = [][]string{
	{`"plain"`},
	{`"esc \" \\ \/ \b\f\n\r\t \u0041 \u00e9 \u003c"`},
	{`"\u2028\u2029"`, "\"raw \u2028 and \u2029\""},
	{"\"bad \xff\xfe utf8 \xc3\"", `"\ud83d\ude00 pair, \ud800 lone"`},
	{`0`}, {`-0`}, {`1.7976931348623157e308`}, {`-1.7976931348623157e308`},
	{`5e-324`}, {`2.2250738585072014e-308`}, {`9007199254740993`},
	{`123456789012345678901234567890`}, {`1E+2`}, {`-12.5e-3`},
	{`1e400`}, {`-1e400`}, {`[1,1e999]`},
	{`null`}, {`true`}, {`false`}, {`[]`}, {`{}`}, {`{"a":[],"b":{}}`},
	{`{"a":1,"a":2}`}, {`{ "spaced" : [ 1 , 2 ] }`},
	{`{"k":[1,"two",null,{"d":{"e":false}}]}`},
	{strings.Repeat("[", maxNesting-1) + `"deep"` + strings.Repeat("]", maxNesting-1)},
	{`"a-first"`, `1.5`, `[true,null]`, `{"x":"y"}`},
	{},
}

// maxNesting is how deep a frame lets arrays and objects nest inside one
// member.
const maxNesting = 64

// TestRelayMatchesDecode holds the relay to the path that decodes: a call
// relayed as bytes reaches the owner's body with the arguments, and the
// client with the result, that decoding and re-encoding at the entry would
// have produced — and an argument that does not decode is refused as a bad
// request either way.
func TestRelayMatchesDecode(t *testing.T) {
	r := startRelayRig(t, nil)
	for _, c := range relayCases {
		raws := make([][]byte, len(c))
		for i, s := range c {
			raws[i] = []byte(s)
		}
		if !r.checkRelay(t, raws...) {
			t.Fatalf("client refused to send %q", c)
		}
	}
}

// FuzzRelayArgs is TestRelayMatchesDecode on arbitrary arguments: a string
// the client encodes, and bytes it carries verbatim when they are one JSON
// value on one line. It starts from amrpc's FuzzSealRequest corpus.
func FuzzRelayArgs(f *testing.F) {
	awkward := []string{
		"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
		"tab\tnewline\ncr\rbell\x07del\x7fnul\x00bs\bff\f",
		"bad utf8 \xff\xfe tail \xc3", "sep \u2028 and \u2029", "caf\u00e9 \u65e5\u672c \U0001F600",
		"\ufffd literal replacement", strings.Repeat("x", 300), "a-gate-bad",
	}
	encodedSeeds := []string{
		`"plain"`, `"<escaped> 😀"`, `-12.5e3`, `true`, `null`, `[]`, `{}`, `[1,"two",[3]]`,
		`{ "spaced" : [ 1 , 2 ] }`, `"<raw & unescaped>"`, "\"caf\xc3\xa9 \xff\"", `1e999`,
		``, ` 1`, `1 `, `{"a":1}{"b":2}`, `{"a":}`, `"unterminated`, "[1,\n2]", "\"tab\there\"",
		strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1),
		strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting),
	}
	for _, s := range awkward {
		f.Add(s, []byte(nil))
	}
	for _, raw := range encodedSeeds {
		f.Add("seed", []byte(raw))
	}
	r := startRelayRig(f, nil)
	f.Fuzz(func(t *testing.T, s string, raw []byte) {
		quoted, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		raws := [][]byte{quoted}
		if raw != nil {
			raws = append(raws, raw)
		}
		r.checkRelay(t, raws...)
	})
}

// TestRelayedRefusalKeepsCode pins that the entry node passes an owner's
// refusal on as the owner made it: an argument the owner cannot decode
// (the entry relays it undecoded) comes back bad-request, and a request the
// owner sheds comes back overloaded with the owner's retry-after hint and
// message, not as an internal error wrapped twice.
func TestRelayedRefusalKeepsCode(t *testing.T) {
	var shedding sync.Map // node ID -> *atomic.Bool
	r := startRelayRig(t, func(cfg *Config) {
		on := new(atomic.Bool)
		shedding.Store(cfg.ID, on)
		cfg.ServerOptions = append(cfg.ServerOptions, amrpc.WithShedPolicy(func(_, method string) (int64, bool) {
			return 37, on.Load() && method == "alpha-put"
		}))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	_, err := r.stub.Invoke(ctx, "alpha-put", rawArg(`1e400`))
	var re *amrpc.RemoteError
	if !errors.As(err, &re) || re.Code != amrpc.CodeBadRequest || !errors.Is(err, amrpc.ErrBadRequest) {
		t.Fatalf("undecodable relayed argument: err = %v, want a bad-request RemoteError", err)
	}

	on, _ := shedding.Load(r.owner.ID())
	on.(*atomic.Bool).Store(true)
	_, err = r.stub.Invoke(ctx, "alpha-put", "a-shed")
	if !errors.As(err, &re) || re.Code != amrpc.CodeOverloaded || re.RetryAfterMS != 37 ||
		re.Msg != "overloaded: admission pressure" || !errors.Is(err, amrpc.ErrOverloaded) {
		t.Fatalf("owner-side shed: err = %#v, want overloaded with the owner's hint 37 and message", err)
	}
	on.(*atomic.Bool).Store(false)
	if _, err := r.stub.Invoke(ctx, "alpha-put", "a-after-shed"); err != nil {
		t.Fatalf("call after the shed: %v", err)
	}
}

// heldReads is a connection that reads nothing until open is closed: a
// client whose replies pile up at the server.
type heldReads struct {
	net.Conn
	open chan struct{}
}

func (c *heldReads) Read(b []byte) (int, error) {
	<-c.open
	return c.Conn.Read(b)
}

// TestRelayPipelinedCallsKeepTheirArguments sends 64 relayed calls with
// distinct arguments of 56–60 KiB through one client connection. Each must
// get its own argument back: a relayed argument aliases its request line
// and a relayed result sits in the entry's result buffer, so a line or
// buffer handed to another call before its reply is written shows up as
// that call's bytes (or as a reply the client drops as corrupt, and a call
// that times out). The calls start one after another, and the client reads
// no reply until the owner has run them all: the replies, about 4 MB,
// outgrow what the kernel buffers, so the entry's later replies wait on
// the connection's back-pressure while later relays run through the
// buffers the earlier ones recycled — when a buffer still in use would be
// overwritten.
func TestRelayPipelinedCallsKeepTheirArguments(t *testing.T) {
	r := startRelayRig(t, nil)
	// A receive buffer this small, set before the connection is made,
	// keeps the entry from parking its replies in the kernel.
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		return c.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
		})
	}}
	conn, err := d.Dial("tcp", r.entry.Addr())
	if err != nil {
		t.Fatal(err)
	}
	held := &heldReads{Conn: conn, open: make(chan struct{})}
	var release sync.Once
	open := func() { release.Do(func() { close(held.open) }) }
	client := amrpc.NewClient(held)
	t.Cleanup(func() {
		open()
		_ = client.Close()
	})
	stub := client.Component(r.entry.cfg.Component)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const calls = 64
	errs := make(chan error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		arg := fmt.Sprintf("a-echo-%02d-%s", i, strings.Repeat(string(rune('a'+i%26)), 56<<10+(calls-i)*64))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := stub.Invoke(ctx, ledgerEcho, arg)
			if err != nil {
				errs <- err
			} else if got != arg {
				errs <- fmt.Errorf("sent %.20q… (%d bytes), got %.20q… back", arg, len(arg), got)
			}
		}()
		// The next call starts once the owner has run this one, so its relay
		// finds the buffers of the relays before it recycled.
		for deadline := time.Now().Add(5 * time.Second); len(r.ownerLedger.echoed(0)) <= i; {
			if time.Now().After(deadline) {
				open()
				t.Fatalf("owner ran %d of %d calls before the client read anything", len(r.ownerLedger.echoed(0)), i+1)
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond) // the last replies reach the entry
	open()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(r.ownerLedger.echoed(0)); got != calls {
		t.Errorf("owner ran the echo body %d times, want %d", got, calls)
	}
}

// dropNextReply is a connection whose reads, once armed, swallow the next
// line the peer sends: a response lost after the peer acted on its request.
type dropNextReply struct {
	net.Conn
	armed    *atomic.Bool
	dropping bool
}

func (c *dropNextReply) Read(b []byte) (int, error) {
	for {
		n, err := c.Conn.Read(b)
		if !c.dropping && n > 0 && c.armed.CompareAndSwap(true, false) {
			c.dropping = true
		}
		if c.dropping && n > 0 {
			i := bytes.IndexByte(b[:n], '\n')
			if i >= 0 {
				c.dropping = false
				n = copy(b, b[i+1:n])
			} else {
				n = 0
			}
		}
		if n > 0 || err != nil {
			return n, err
		}
	}
}

// TestRelayRetryResendsIdenticalArguments loses the owner's first response
// to a relayed call. The entry's forward is idempotent, so its client
// retries once the attempt times out: the retry must carry the same
// argument bytes — they still alias the external request's line, which
// the entry holds until it replies — and the client must get its own
// argument back.
func TestRelayRetryResendsIdenticalArguments(t *testing.T) {
	armed := new(atomic.Bool)
	r := startRelayRig(t, func(cfg *Config) {
		cfg.DialConn = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &dropNextReply{Conn: c, armed: armed}, nil
		}
		cfg.ClientOptions = append(cfg.ClientOptions,
			amrpc.WithRetry(amrpc.RetryPolicy{MaxAttempts: 3, AttemptTimeout: time.Second}))
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.stub.Invoke(ctx, ledgerEcho, "a-warm"); err != nil {
		t.Fatal(err)
	}
	seen := len(r.ownerLedger.echoed(0))

	arg := map[string]any{"id": "a-retried", "esc": "\u2028 <&>\"", "n": 1.5, "deep": []any{[]any{nil}}}
	armed.Store(true)
	got, err := r.stub.Invoke(ctx, ledgerEcho, arg)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Load() {
		t.Fatal("no response was dropped")
	}
	if !reflect.DeepEqual(got, arg) {
		t.Fatalf("got %#v back, sent %#v", got, arg)
	}
	saw := r.ownerLedger.echoed(seen)
	if len(saw) != 2 {
		t.Fatalf("owner ran the body %d times, want 2 (the lost attempt and its retry)", len(saw))
	}
	for i, args := range saw {
		if !reflect.DeepEqual(args, []any{arg}) {
			t.Fatalf("attempt %d carried %#v, want %#v", i+1, args, []any{arg})
		}
	}
}
