package amrpc

// Tests for the pipelined server: the bounded per-connection worker pool
// (one pipelining client cannot exceed MaxConcurrentPerConn in-flight
// handlers), the CodeOverloaded queue-full rejection, the admission-aware
// shed policy with its retry-after hint, and the frame writer's flush
// accounting on live connections.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// startServerOpts is startServer with server options.
func startServerOpts(t *testing.T, srv *Server, proxies ...*proxy.Proxy) string {
	t.Helper()
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

// TestWorkerPoolBound pins the Serve fan-out fix: with a pool of 2, a
// burst of 8 pipelined holds runs at most 2 handlers concurrently, queues
// at most the pool's depth, and answers the rest CodeOverloaded — instead
// of spawning 8 goroutines.
func TestWorkerPoolBound(t *testing.T) {
	const cap, burst = 2, 8
	gate := make(chan struct{})
	var active, maxActive atomic.Int64
	p := proxy.New(moderator.New("pool"))
	if err := p.Bind("hold", func(inv *aspect.Invocation) (any, error) {
		n := active.Add(1)
		for {
			m := maxActive.Load()
			if n <= m || maxActive.CompareAndSwap(m, n) {
				break
			}
		}
		defer active.Add(-1)
		select {
		case <-gate:
			return "ok", nil
		case <-inv.Context().Done():
			return nil, inv.Context().Err()
		}
	}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(WithMaxConcurrentPerConn(cap))
	addr := startServerOpts(t, srv, p)
	c := dialClient(t, addr)

	var wg sync.WaitGroup
	var ok, overloaded atomic.Int64
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Component("pool").Invoke(context.Background(), "hold")
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			default:
				t.Errorf("hold: %v", err)
			}
		}()
	}
	// Wait until the pool and queue are saturated: every request beyond
	// 2 in flight + 2 queued has been refused.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Rejected < burst-2*cap {
		if time.Now().After(deadline) {
			t.Fatalf("rejections never reached %d: %+v", burst-2*cap, srv.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
	close(gate)
	wg.Wait()

	if got := maxActive.Load(); got > cap {
		t.Fatalf("max concurrent handlers = %d, want <= %d", got, cap)
	}
	if ok.Load()+overloaded.Load() != burst {
		t.Fatalf("outcomes %d ok + %d overloaded, want %d total", ok.Load(), overloaded.Load(), burst)
	}
	if overloaded.Load() == 0 {
		t.Fatal("no request was refused CodeOverloaded")
	}
	st := srv.Stats()
	if st.Rejected != uint64(overloaded.Load()) {
		t.Fatalf("server rejected = %d, clients saw %d", st.Rejected, overloaded.Load())
	}
	if st.Queued == 0 {
		t.Fatal("no request was counted as queued behind the pool")
	}
}

// TestShedPolicy pins admission-aware shedding: a shedding server refuses
// the request before any aspect or method body runs, the client sees
// ErrOverloaded, and the retry-after hint survives the wire.
func TestShedPolicy(t *testing.T) {
	var bodyRuns atomic.Int64
	p := proxy.New(moderator.New("shed"))
	if err := p.Bind("work", func(inv *aspect.Invocation) (any, error) {
		bodyRuns.Add(1)
		return "ran", nil
	}); err != nil {
		t.Fatal(err)
	}
	var shedding atomic.Bool
	srv := NewServer(WithShedPolicy(func(component, method string) (int64, bool) {
		if shedding.Load() {
			return 42, true
		}
		return 0, false
	}))
	addr := startServerOpts(t, srv, p)
	c := dialClient(t, addr)
	stub := c.Component("shed")

	if _, err := stub.Invoke(context.Background(), "work"); err != nil {
		t.Fatalf("unshedded call: %v", err)
	}
	shedding.Store(true)
	_, err := stub.Invoke(context.Background(), "work")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed call error = %v, want ErrOverloaded", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeOverloaded {
		t.Fatalf("shed call error = %v, want CodeOverloaded", err)
	}
	if re.RetryAfterMS != 42 {
		t.Fatalf("retry-after hint = %d, want 42", re.RetryAfterMS)
	}
	if got := bodyRuns.Load(); got != 1 {
		t.Fatalf("method body ran %d times, want 1 (shed must precede admission)", got)
	}
	st := srv.Stats()
	if st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}

	shedding.Store(false)
	if _, err := stub.Invoke(context.Background(), "work"); err != nil {
		t.Fatalf("recovered call: %v", err)
	}
}

// countingConn counts the Write calls a client connection receives.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestWriterCoalescingAccounting pins the flush ledger and, from outside,
// the rule for sharing a write. Every response leaves through the frame
// writer, so the flushed-frame count must equal the responses produced.
// With one call in flight nothing is batched or delayed: one conn.Write per
// frame on both ends. With 16 callers writes may be shared, never
// duplicated: the flush count cannot exceed the frames.
func TestWriterCoalescingAccounting(t *testing.T) {
	const calls, callers = 50, 16
	srv := NewServer()
	addr := startServerOpts(t, srv, newEchoProxy(t, "svc"))
	var clientWrites atomic.Int64
	c := newClient(WithDialFunc(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return countingConn{conn, &clientWrites}, nil
	}))
	t.Cleanup(func() { _ = c.Close() })
	stub := c.Component("svc")
	for i := 0; i < calls; i++ {
		if _, err := stub.Invoke(context.Background(), "echo", i); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.FlushFrames != calls {
		t.Fatalf("flushed frames = %d, want %d", st.FlushFrames, calls)
	}
	if st.Flushes != calls {
		t.Fatalf("server: %d writes for %d sequential responses, want one each", st.Flushes, calls)
	}
	if n := clientWrites.Load(); n != calls {
		t.Fatalf("client: %d writes for %d sequential requests, want one each", n, calls)
	}

	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := stub.Invoke(context.Background(), "echo", i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	const total = calls + callers*calls
	st = srv.Stats()
	if st.FlushFrames != total {
		t.Fatalf("flushed frames = %d, want %d", st.FlushFrames, total)
	}
	if st.Flushes == 0 || st.Flushes > st.FlushFrames {
		t.Fatalf("flushes = %d with %d frames", st.Flushes, st.FlushFrames)
	}
	if n := clientWrites.Load(); n > total {
		t.Fatalf("client: %d writes for %d requests", n, total)
	}
}
