package amrpc

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/chaosnet"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// flakyDialer fails its first failures dials, then connects to addr.
type flakyDialer struct {
	addr     string
	failures int32
	attempts atomic.Int32
}

func (d *flakyDialer) dial() (net.Conn, error) {
	n := d.attempts.Add(1)
	if n <= d.failures {
		return nil, errors.New("flaky dialer: injected refusal")
	}
	return net.Dial("tcp", d.addr)
}

// TestBackoff pins the one backoff schedule that client retries, re-dials
// and the cluster router all draw from: pause n lies in [d/2, d] for
// d = min(base·2^(n-1), max), whatever n is.
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	huge := time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		name      string
		base, max time.Duration
		n         int
		lo, hi    time.Duration
	}{
		{"first pause is base", 10 * ms, time.Second, 1, 5 * ms, 10 * ms},
		{"second pause doubles", 10 * ms, time.Second, 2, 10 * ms, 20 * ms},
		{"fourth pause doubles twice more", 10 * ms, time.Second, 4, 40 * ms, 80 * ms},
		{"cap holds", 10 * ms, time.Second, 8, 500 * ms, time.Second},
		{"n=63 is capped", 10 * ms, time.Second, 63, 500 * ms, time.Second},
		{"n=64 is capped", 10 * ms, time.Second, 64, 500 * ms, time.Second},
		{"n=1000 is capped", 10 * ms, time.Second, 1000, 500 * ms, time.Second},
		{"n=64 under an unbounded max", time.Nanosecond, huge, 64, huge / 2, huge},
		{"base above max is capped", 5 * time.Second, time.Second, 1, 500 * ms, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for k := 0; k < 1000; k++ {
				d := Backoff(tc.base, tc.max, tc.n)
				if d <= 0 || d < tc.lo || d > tc.hi {
					t.Fatalf("Backoff(%v, %v, %d) = %v, want in [%v, %v]", tc.base, tc.max, tc.n, d, tc.lo, tc.hi)
				}
			}
		})
	}
}

// An idempotent call must survive a dead connection: the retry loop
// re-dials under backoff and the second attempt lands on the live server.
func TestIdempotentCallRetriesThroughReconnect(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "echo"))
	d := &flakyDialer{addr: addr, failures: 2}
	c := newClient(
		WithDialFunc(d.dial),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}),
	)
	defer c.Close()

	stub := c.Component("echo", WithIdempotent())
	got, err := stub.Invoke(context.Background(), "echo", "hello")
	if err != nil {
		t.Fatalf("idempotent invoke across reconnect: %v", err)
	}
	if got != "hello" {
		t.Fatalf("echo = %v, want hello", got)
	}
	if n := d.attempts.Load(); n != 3 {
		t.Fatalf("dial attempts = %d, want 3 (two refusals, then success)", n)
	}
	if !c.Connected() {
		t.Fatal("client should hold a live connection after the successful retry")
	}
}

// A non-idempotent call gets exactly one attempt: the first transport
// failure surfaces immediately, with no further dials.
func TestNonIdempotentCallIsNeverRetried(t *testing.T) {
	d := &flakyDialer{failures: 1 << 30} // always refuse
	c := newClient(
		WithDialFunc(d.dial),
		WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}),
	)
	defer c.Close()

	_, err := c.Component("svc").Invoke(context.Background(), "op")
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if n := d.attempts.Load(); n != 1 {
		t.Fatalf("dial attempts = %d, want exactly 1 for a non-idempotent call", n)
	}

	// The same failure on an idempotent stub burns through the policy.
	d.attempts.Store(0)
	_, err = c.Component("svc", WithIdempotent()).Invoke(context.Background(), "op")
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if n := d.attempts.Load(); n != 5 {
		t.Fatalf("dial attempts = %d, want MaxAttempts=5 for an idempotent call", n)
	}
}

// Application errors are decisions the remote component already made;
// retrying them would repeat side effects and second-guess aspects. Even an
// idempotent stub must execute the method exactly once.
func TestApplicationErrorsAreNeverRetried(t *testing.T) {
	var bodyRuns atomic.Int32
	p := proxy.New(moderator.New("fussy"))
	if err := p.Bind("refuse", func(inv *aspect.Invocation) (any, error) {
		bodyRuns.Add(1)
		return nil, errors.New("business rule says no")
	}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, p)

	c, err := Dial(addr, WithRetry(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Component("fussy", WithIdempotent()).Invoke(context.Background(), "refuse")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("application error must not classify as transport: %v", err)
	}
	if n := bodyRuns.Load(); n != 1 {
		t.Fatalf("method body ran %d times, want exactly 1", n)
	}
}

// A caller whose own context has expired must not be retried, however
// idempotent the stub: the answer can no longer be delivered.
func TestCallerDeadlineStopsRetries(t *testing.T) {
	d := &flakyDialer{failures: 1 << 30}
	c := newClient(
		WithDialFunc(d.dial),
		WithRetry(RetryPolicy{MaxAttempts: 50, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}),
	)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := c.Component("svc", WithIdempotent()).Invoke(ctx, "op")
	if err == nil {
		t.Fatal("invoke with everything down should fail")
	}
	if n := d.attempts.Load(); n >= 50 {
		t.Fatalf("dial attempts = %d: retries kept going past the caller's deadline", n)
	}
}

// Regression for the Close/teardown race: closing the client while many
// calls are in flight — over a chaosnet link that is also injecting resets
// — must resolve every pending channel. No invocation goroutine may hang,
// and the in-flight table must drain to zero.
func TestCloseMidPipelineResolvesAllPending(t *testing.T) {
	p := proxy.New(moderator.New("parking"))
	if err := p.Bind("park", func(inv *aspect.Invocation) (any, error) {
		<-inv.Context().Done()
		return nil, inv.Context().Err()
	}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, p)

	inj := chaosnet.New(chaosnet.Config{
		Seed:            99,
		ResetProb:       0.02,
		LatencyProb:     0.10,
		LatencyMin:      100 * time.Microsecond,
		LatencyMax:      time.Millisecond,
		OpsBeforeFaults: 2,
	})
	c := newClient(
		WithDialFunc(inj.DialFunc(addr)),
		WithRetry(RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}),
	)

	const callers = 24
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Component("parking").Invoke(context.Background(), "park")
		}(i)
	}

	// Let the pipeline fill (some calls may already have died to an
	// injected reset; we only need a busy in-flight table, not a count).
	deadline := time.Now().Add(2 * time.Second)
	for c.PendingCalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Logf("close: %v", err) // closing a reset conn may report an error; that's fine
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d pending callers still blocked 5s after Close", c.PendingCalls())
	}

	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: a parked call somehow succeeded after Close", i)
		}
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("PendingCalls = %d after Close, want 0", n)
	}
	if _, err := c.Component("parking").Invoke(context.Background(), "park"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("invoke after Close: %v, want ErrClientClosed", err)
	}
}
