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
	_, err = c.Component("svc").Invoke(context.Background(), "ghost")
	if !errors.Is(err, proxy.ErrNoSuchMethod) {
		t.Fatalf("ghost method must map to ErrNoSuchMethod: %v", err)
	}
}

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
