package amrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/fault"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// startServer serves the given proxies on an ephemeral port and returns
// the address plus a cleanup.
func startServer(t *testing.T, proxies ...*proxy.Proxy) string {
	t.Helper()
	srv := NewServer()
	for _, p := range proxies {
		if err := srv.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if serr := srv.Serve(ln); serr != nil {
			t.Errorf("serve: %v", serr)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func newEchoProxy(t *testing.T, name string) *proxy.Proxy {
	t.Helper()
	p := proxy.New(moderator.New(name))
	if err := p.Bind("echo", func(inv *aspect.Invocation) (any, error) {
		return inv.Arg(0), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("sum", func(inv *aspect.Invocation) (any, error) {
		a, err := inv.ArgInt(0)
		if err != nil {
			return nil, err
		}
		b, err := inv.ArgInt(1)
		if err != nil {
			return nil, err
		}
		return a + b, nil
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegisterValidation(t *testing.T) {
	srv := NewServer()
	if err := srv.Register(nil); err == nil {
		t.Error("nil proxy must error")
	}
	p := newEchoProxy(t, "svc")
	if err := srv.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(p); err == nil {
		t.Error("duplicate register must error")
	}
}

func TestRoundTrip(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "svc"))
	c := dialClient(t, addr)
	stub := c.Component("svc")

	got, err := stub.Invoke(context.Background(), "echo", "hello")
	if err != nil || got != "hello" {
		t.Fatalf("echo = %v, %v", got, err)
	}
	// Numbers arrive as float64 over JSON; ArgInt coercion on the server
	// absorbs it.
	got, err = stub.Invoke(context.Background(), "sum", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.(float64) != 5 {
		t.Fatalf("sum = %v", got)
	}
	// Nil result round-trips as nil.
	got, err = stub.Invoke(context.Background(), "echo")
	if err != nil || got != nil {
		t.Fatalf("nil echo = %v, %v", got, err)
	}
}

func TestUnknownComponentAndMethod(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "svc"))
	c := dialClient(t, addr)

	_, err := c.Component("ghost").Invoke(context.Background(), "echo", "x")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeNoComponent {
		t.Fatalf("ghost component: %v", err)
	}
	if !errors.Is(err, ErrNoSuchComponent) {
		t.Fatalf("ghost component must map to ErrNoSuchComponent: %v", err)
	}
	_, err = c.Component("svc").Invoke(context.Background(), "ghost")
	if !errors.Is(err, proxy.ErrNoSuchMethod) {
		t.Fatalf("ghost method must map to ErrNoSuchMethod: %v", err)
	}
}

// TestWireCodesRoundTrip holds every row of the wire-code table in both
// directions: the server codes an error wrapping the row's sentinel with
// the row's code, and a RemoteError carrying the code matches the
// sentinel again.
func TestWireCodesRoundTrip(t *testing.T) {
	for _, row := range wireCodes {
		if got := codeFor(fmt.Errorf("x: %w", row.err)); got != row.code {
			t.Errorf("codeFor(wrapped %v) = %q, want %q", row.err, got, row.code)
		}
		if !errors.Is(&RemoteError{Code: row.code}, row.err) {
			t.Errorf("RemoteError{Code: %q} does not match %v", row.code, row.err)
		}
	}
	// An abort that wraps a concern's sentinel is coded by the concern.
	both := fmt.Errorf("%w: %w", aspect.ErrAborted, auth.ErrPermissionDenied)
	if got := codeFor(both); got != CodeDenied {
		t.Errorf("codeFor(aborted + permission denied) = %q, want %q", got, CodeDenied)
	}
	if got := codeFor(errors.New("boom")); got != CodeInternal {
		t.Errorf("codeFor(unmapped) = %q, want %q", got, CodeInternal)
	}

	// An error that carries its own code goes out under it, bare or
	// wrapped in an abort, and matches itself again at the client; an
	// error with neither its own code nor a row is still internal. The
	// circuit breaker's sentinel is one such error.
	cases := map[string]struct {
		err      error
		code     string
		sentinel error // nil: the error matches no coded sentinel
	}{
		"bare":            {errSelfCoded, selfCode, errSelfCoded},
		"aborted":         {fmt.Errorf("%w: %w", aspect.ErrAborted, errSelfCoded), selfCode, errSelfCoded},
		"circuit-bare":    {fault.ErrCircuitOpen, "circuit-open", fault.ErrCircuitOpen},
		"circuit-aborted": {fmt.Errorf("%w: %w", aspect.ErrAborted, fault.ErrCircuitOpen), "circuit-open", fault.ErrCircuitOpen},
		"unmapped":        {errors.New("boom"), CodeInternal, nil},
	}
	p := proxy.New(moderator.New("coded"))
	for method, c := range cases {
		if err := p.Bind(method, func(*aspect.Invocation) (any, error) { return nil, c.err }); err != nil {
			t.Fatal(err)
		}
	}
	stub := dialClient(t, startServer(t, p)).Component("coded")
	for method, c := range cases {
		_, err := stub.Invoke(context.Background(), method)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != c.code {
			t.Errorf("%s: err = %v, want code %q", method, err, c.code)
		}
		for _, s := range []error{errSelfCoded, fault.ErrCircuitOpen} {
			if want := s == c.sentinel; errors.Is(err, s) != want {
				t.Errorf("%s: errors.Is(%v, %v) = %v, want %v", method, err, s, !want, want)
			}
		}
	}
}

// selfCoded is a sentinel that names its own wire code, as the sentinels
// of a package amrpc does not import do.
type selfCoded string

const (
	selfCode     = "self-coded"
	errSelfCoded = selfCoded("amrpc test: self-coded sentinel")
)

func (e selfCoded) Error() string    { return string(e) }
func (e selfCoded) WireCode() string { return selfCode }

func TestSentinelErrorsCrossTheWire(t *testing.T) {
	// An auth-guarded component: remote anonymous calls must surface
	// auth.ErrUnauthenticated via errors.Is.
	store := auth.NewTokenStore()
	tok := store.Issue("alice", "client")
	p := newEchoProxy(t, "secure")
	if err := p.Moderator().Register("echo", aspect.KindAuthentication,
		auth.Authenticator("auth", store)); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, p)
	c := dialClient(t, addr)

	_, err := c.Component("secure").Invoke(context.Background(), "echo", "x")
	if !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("anonymous: %v", err)
	}
	got, err := c.Component("secure", WithToken(tok)).Invoke(context.Background(), "echo", "x")
	if err != nil || got != "x" {
		t.Fatalf("authenticated: %v, %v", got, err)
	}
}

// TestRecycledInvocationCarriesNoToken is the wire twin of the ticket
// app's recycling test: the server releases each request's invocation
// record once the call returns, so on one connection a tokenless request
// may run on the record a token-bearing one just left. It must still be
// refused.
func TestRecycledInvocationCarriesNoToken(t *testing.T) {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := auth.NewTokenStore()
	tok := store.Issue("alice", "client")
	if err := g.EnableAuthentication(store); err != nil {
		t.Fatal(err)
	}
	c := dialClient(t, startServer(t, g.Proxy()))
	signed := c.Component(ticket.ComponentName, WithToken(tok))
	anonymous := c.Component(ticket.ComponentName)
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if _, err := signed.Invoke(ctx, ticket.MethodOpen, "TT-1", "recycled"); err != nil {
			t.Fatalf("round %d: authenticated open: %v", i, err)
		}
		// Fatal before draining: an assign wrongly admitted here has
		// emptied the buffer, and the authenticated one would park.
		if _, err := anonymous.Invoke(ctx, ticket.MethodAssign); !errors.Is(err, auth.ErrUnauthenticated) {
			t.Fatalf("round %d: tokenless assign after a token-bearing request: %v", i, err)
		}
		if _, err := signed.Invoke(ctx, ticket.MethodAssign); err != nil {
			t.Fatalf("round %d: authenticated assign: %v", i, err)
		}
	}
}

func TestPriorityTravels(t *testing.T) {
	p := proxy.New(moderator.New("svc"))
	var seen int
	if err := p.Moderator().Register("m", aspect.KindScheduling,
		aspect.New("spy", aspect.KindScheduling, func(inv *aspect.Invocation) aspect.Verdict {
			seen = inv.Priority
			return aspect.Resume
		}, nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, p)
	c := dialClient(t, addr)
	if _, err := c.Component("svc", WithPriority(7)).Invoke(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Errorf("priority = %d, want 7", seen)
	}
}

// TestConcurrentPipelinedCalls keeps 64 calls in flight on one connection,
// each with an argument (and so a result) of its own length. Decoded args
// and results are slices of the two readers' line buffers, which the next
// frame overwrites: a request handed to a worker without its own line, or
// a result handed to a caller without its own copy, shows up here as a
// reply that echoes somebody else's bytes (and under -race as a data race).
func TestConcurrentPipelinedCalls(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "svc"))
	c := dialClient(t, addr)
	stub := c.Component("svc")
	var wg sync.WaitGroup
	// Enough bytes each way (about 1 MiB) that both 64 KiB line buffers
	// wrap many times while calls are in flight.
	const callers, per = 64, 16
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				want := fmt.Sprintf("msg-%d-%d-%s", w, k, strings.Repeat("x", (w*67+k*131)%2000))
				got, err := stub.Invoke(context.Background(), "echo", want)
				if err != nil || got != want {
					t.Errorf("call %d-%d (%d bytes) was not echoed back: err=%v", w, k, len(want), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestBlockedRemoteCallRespectsClientContext(t *testing.T) {
	// A remote call parked by a Block-forever guard must return when the
	// client's context expires (the server cancels on connection close is
	// separate; here the context travels with the pending call).
	p := proxy.New(moderator.New("stuck"))
	gate := aspect.New("gate", aspect.KindSynchronization,
		func(*aspect.Invocation) aspect.Verdict { return aspect.Block }, nil)
	if err := p.Moderator().Register("m", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, p)
	c := dialClient(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Component("stuck").Invoke(ctx, "m")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline, got %v", err)
	}
}

// writeHookConn runs hook, once, in place of the next Write.
type writeHookConn struct {
	net.Conn
	mu   sync.Mutex
	hook func(p []byte) (int, error)
}

func (c *writeHookConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	hook := c.hook
	c.hook = nil
	c.mu.Unlock()
	if hook == nil {
		return c.Conn.Write(p)
	}
	return hook(p)
}

func (c *writeHookConn) setHook(hook func(p []byte) (int, error)) {
	c.mu.Lock()
	c.hook = hook
	c.mu.Unlock()
}

// TestLateReplyToAbandonedCall: a call that gives up on its context while
// its reply is already being delivered must leave that reply behind — it
// may never reach a later call on the same client. Each round writes a
// call's request, waits until the reader has delivered the reply into the
// call's slot, and only then cancels, so the caller finds both the reply
// and its done context ready and abandons the call about half the time.
// Recycling the reply slot of an abandoned call hands the next call a
// stale reply, which this test reports as a wrong echo.
func TestLateReplyToAbandonedCall(t *testing.T) {
	raw, err := net.Dial("tcp", startServer(t, newEchoProxy(t, "svc")))
	if err != nil {
		t.Fatal(err)
	}
	conn := &writeHookConn{Conn: raw}
	c := NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })
	stub := c.Component("svc")
	abandoned := 0
	for round := 0; round < 400 && abandoned < 25; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		conn.setHook(func(p []byte) (int, error) {
			c.mu.Lock()
			var slot *replySlot
			for _, pc := range c.pending {
				slot = pc.slot
			}
			c.mu.Unlock()
			n, err := raw.Write(p)
			for deadline := time.Now().Add(5 * time.Second); len(slot.ch) == 0 && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
			return n, err
		})
		late := fmt.Sprintf("late-%d", round)
		got, err := stub.Invoke(ctx, "echo", late)
		switch {
		case errors.Is(err, context.Canceled):
			abandoned++
		case err != nil || got != late:
			t.Fatalf("round %d: call = %v, %v", round, got, err)
		}
		next := fmt.Sprintf("next-%d", round)
		if got, err := stub.Invoke(context.Background(), "echo", next); err != nil || got != next {
			t.Fatalf("round %d: the call after an abandoned one got %v, %v; want %q", round, got, err, next)
		}
	}
	if abandoned == 0 {
		t.Fatal("no call was abandoned with its reply delivered: the test exercised nothing")
	}
}

func TestRemoteGuardedTicketFlow(t *testing.T) {
	// The paper's full distributed scenario: a guarded ticket server hosted
	// remotely, concurrent remote producers and consumers, nothing lost.
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, g.Proxy())
	c := dialClient(t, addr)
	stub := c.Component(ticket.ComponentName)

	const producers, per = 3, 10
	total := producers * per
	var wg sync.WaitGroup
	got := make(chan string, total)
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				id := fmt.Sprintf("t-%d-%d", w, k)
				if _, err := stub.Invoke(context.Background(), ticket.MethodOpen, id, "s"); err != nil {
					t.Errorf("open: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				res, err := stub.Invoke(context.Background(), ticket.MethodAssign)
				if err != nil {
					t.Errorf("assign: %v", err)
					return
				}
				m, ok := res.(map[string]any)
				if !ok {
					t.Errorf("assign result type %T", res)
					return
				}
				got <- m["id"].(string)
			}
		}()
	}
	wg.Wait()
	close(got)
	seen := make(map[string]bool, total)
	for id := range got {
		if seen[id] {
			t.Errorf("duplicate %s", id)
		}
		seen[id] = true
	}
	if len(seen) != total {
		t.Errorf("distinct = %d, want %d", len(seen), total)
	}
}

func TestClientFailsPendingOnServerClose(t *testing.T) {
	p := proxy.New(moderator.New("stuck"))
	gate := aspect.New("gate", aspect.KindSynchronization,
		func(*aspect.Invocation) aspect.Verdict { return aspect.Block }, nil)
	if err := p.Moderator().Register("m", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.Register(p); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	c := dialClient(t, ln.Addr().String())

	callErr := make(chan error, 1)
	go func() {
		_, err := c.Component("stuck").Invoke(context.Background(), "m")
		callErr <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the call park server-side
	srv.Close()
	<-done
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("pending call must fail on server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call never failed")
	}
	// Subsequent calls fail fast.
	if _, err := c.Component("stuck").Invoke(context.Background(), "m"); err == nil {
		t.Fatal("calls on dead connection must fail")
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "svc"))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := c.Component("svc").Invoke(context.Background(), "echo", "x"); !errors.Is(err, ErrClientClosed) {
		if err == nil {
			t.Fatal("invoke after close must fail")
		}
	}
}
