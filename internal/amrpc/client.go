package amrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrClientClosed is returned for calls on a closed client.
var ErrClientClosed = errors.New("amrpc: client closed")

// ErrTransport marks connection-level failures (as opposed to application
// errors the remote component returned). Load balancers fail over on it,
// and the client's retry policy retries idempotent calls on it.
var ErrTransport = errors.New("amrpc: transport failure")

// codeTransportLocal is a client-internal marker used when failing pending
// calls; it never travels on the wire.
const codeTransportLocal = "_local-transport"

// RetryPolicy controls transport-failure retries for idempotent calls.
// Application errors (RemoteError) and caller-context cancellation are
// never retried — retrying is for unreachable or flaky transports, not for
// decisions the remote component already made.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call (1 = no
	// retry). Zero means the default of 1.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each subsequent
	// retry doubles it, capped at MaxBackoff, with equal jitter (the
	// sleep is uniformly drawn from [d/2, d]).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 1s.
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt. When a request or
	// its response is silently lost in flight, this is what turns an
	// indefinite hang into a fast, retryable failure. Zero disables the
	// per-attempt bound (the call's context still applies).
	AttemptTimeout time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	return p
}

// backoffFor returns the jittered sleep before retry attempt a (1-based).
func (p RetryPolicy) backoffFor(a int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < a && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	// Equal jitter: half deterministic, half uniform — spreads synchronized
	// retries without ever sleeping less than half the schedule.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// clientOptions is the resolved configuration of a Client.
type clientOptions struct {
	dial          func() (net.Conn, error)
	retry         RetryPolicy
	callTimeout   time.Duration
	reconnectBase time.Duration
	reconnectMax  time.Duration
	maxLineBytes  int
}

// ClientOption configures Dial/NewClient.
type ClientOption func(*clientOptions)

// WithDialFunc supplies the function used to establish (and re-establish)
// the connection. Setting it enables automatic reconnect: when the
// connection dies, the next call re-dials under exponential backoff with
// jitter instead of failing forever. Tests use it to route the client
// through a chaosnet injector.
func WithDialFunc(dial func() (net.Conn, error)) ClientOption {
	return func(o *clientOptions) { o.dial = dial }
}

// WithRetry sets the client's default retry policy. It applies only to
// calls made through stubs marked idempotent (WithIdempotent): transport
// failures and per-attempt timeouts are retried, application errors never.
func WithRetry(p RetryPolicy) ClientOption {
	return func(o *clientOptions) { o.retry = p }
}

// WithCallTimeout gives every call without a context deadline this default
// deadline, so a lost frame fails fast instead of hanging forever.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(o *clientOptions) { o.callTimeout = d }
}

// WithReconnectBackoff tunes the re-dial schedule (defaults 20ms base, 2s
// cap). Each consecutive dial failure doubles the wait before the next
// dial attempt; a successful dial resets it.
func WithReconnectBackoff(base, max time.Duration) ClientOption {
	return func(o *clientOptions) {
		if base > 0 {
			o.reconnectBase = base
		}
		if max > 0 {
			o.reconnectMax = max
		}
	}
}

// encodeBuf is the scratch space of one call: its encoded arguments. Each
// attempt's frame is encoded straight into its connection's frameWriter.
type encodeBuf struct{ args []byte }

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

// liveConn is one established connection generation. The write side is
// its frameWriter, shared by every caller; the read side is owned by
// exactly one readLoop goroutine.
type liveConn struct {
	conn net.Conn
	gen  uint64
	out  *frameWriter
}

// pendingCall tracks one in-flight request: the response channel and the
// connection generation that carries it, so tearing down one connection
// fails exactly the calls it was carrying.
type pendingCall struct {
	ch  chan response
	gen uint64
}

// Client is a connection to an amrpc server. Requests are pipelined: many
// goroutines may invoke concurrently. When constructed with a dial
// function (Dial does this), a broken connection is re-established
// transparently on the next call, under exponential backoff with jitter.
// Construct with Dial or NewClient, then derive per-component stubs with
// Component.
type Client struct {
	opts clientOptions

	mu         sync.Mutex
	cur        *liveConn
	gen        uint64
	nextID     uint64
	pending    map[uint64]pendingCall
	closed     bool
	lastErr    error // why the last connection died / dial failed
	connecting chan struct{}
	dialFails  int
	nextDialAt time.Time

	readers sync.WaitGroup

	stats clientStats
}

// Dial connects to an amrpc server. The returned client re-dials addr
// automatically if the connection later breaks.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	all := append([]ClientOption{WithDialFunc(defaultDialFunc(addr))}, opts...)
	c := newClient(all...)
	// Eager first dial: Dial keeps its historical contract of failing
	// immediately when the server is unreachable.
	if _, err := c.ensureConn(context.Background()); err != nil {
		return nil, err
	}
	return c, nil
}

// defaultDialFunc dials addr over TCP with the self-connection guard.
func defaultDialFunc(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("amrpc: dial %s: %v: %w", addr, err, ErrTransport)
		}
		// Guard against TCP simultaneous-open self-connection: dialing a
		// closed ephemeral port on the same host can connect the socket to
		// itself, which would echo requests back as garbage responses.
		if conn.LocalAddr().String() == conn.RemoteAddr().String() {
			_ = conn.Close()
			return nil, fmt.Errorf("amrpc: dial %s: self-connection: %w", addr, ErrTransport)
		}
		return conn, nil
	}
}

// NewClient wraps an established connection. Without a WithDialFunc option
// the client cannot reconnect: once the connection dies, calls fail.
func NewClient(conn net.Conn, opts ...ClientOption) *Client {
	c := newClient(opts...)
	c.install(conn)
	return c
}

func newClient(opts ...ClientOption) *Client {
	o := clientOptions{
		reconnectBase: 20 * time.Millisecond,
		reconnectMax:  2 * time.Second,
		maxLineBytes:  4 * 1024 * 1024,
	}
	for _, opt := range opts {
		opt(&o)
	}
	o.retry = o.retry.withDefaults()
	return &Client{
		opts:    o,
		pending: make(map[uint64]pendingCall, 16),
	}
}

// install makes conn the current connection and starts its reader.
// Callers must ensure no current connection exists.
func (c *Client) install(conn net.Conn) *liveConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.installLocked(conn)
}

func (c *Client) installLocked(conn net.Conn) *liveConn {
	c.gen++
	if c.gen > 1 {
		c.stats.reconnects.Add(1)
	}
	lc := &liveConn{conn: conn, gen: c.gen, out: newFrameWriter(conn, nil)}
	c.cur = lc
	c.lastErr = nil
	c.dialFails = 0
	c.readers.Add(1)
	go c.readLoop(lc)
	return lc
}

// ensureConn returns the current connection, dialing (with backoff) if the
// client is disconnected and has a dial function. Concurrent callers
// collapse onto a single dial attempt.
func (c *Client) ensureConn(ctx context.Context) (*liveConn, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c.cur != nil {
			lc := c.cur
			c.mu.Unlock()
			return lc, nil
		}
		if c.opts.dial == nil {
			err := c.lastErr
			c.mu.Unlock()
			if err == nil {
				err = errors.New("amrpc: not connected")
			}
			return nil, fmt.Errorf("amrpc: connection failed: %v: %w", err, ErrTransport)
		}
		if ch := c.connecting; ch != nil {
			// Another goroutine is dialing; wait for its verdict.
			c.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		done := make(chan struct{})
		c.connecting = done
		wait := time.Until(c.nextDialAt)
		c.mu.Unlock()

		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				c.finishDial(done, nil, nil) // release the dial slot
				return nil, ctx.Err()
			}
		}
		conn, err := c.opts.dial()
		lc, cerr := c.finishDial(done, conn, err)
		if cerr != nil {
			return nil, cerr
		}
		if lc != nil {
			return lc, nil
		}
		// Dial failed; surface it (the retry policy may call again).
		return nil, fmt.Errorf("amrpc: reconnect: %v: %w", err, ErrTransport)
	}
}

// finishDial publishes the outcome of a dial attempt and releases waiters.
func (c *Client) finishDial(done chan struct{}, conn net.Conn, err error) (*liveConn, error) {
	c.mu.Lock()
	defer func() {
		c.connecting = nil
		close(done)
		c.mu.Unlock()
	}()
	if c.closed {
		if conn != nil {
			_ = conn.Close()
		}
		return nil, ErrClientClosed
	}
	if conn == nil {
		if err != nil {
			c.lastErr = err
			c.dialFails++
			c.stats.dialFailures.Add(1)
			d := c.opts.reconnectBase << (c.dialFails - 1)
			if d > c.opts.reconnectMax || d <= 0 {
				d = c.opts.reconnectMax
			}
			// Full jitter keeps a thundering herd of reconnecting clients
			// from hammering a recovering server in lockstep.
			c.nextDialAt = time.Now().Add(d/2 + time.Duration(rand.Int63n(int64(d/2)+1)))
		}
		return nil, nil
	}
	return c.installLocked(conn), nil
}

// readLoop dispatches responses of one connection generation to their
// waiting callers, then fails whatever that generation still carried.
func (c *Client) readLoop(lc *liveConn) {
	defer c.readers.Done()
	scanner := bufio.NewScanner(lc.conn)
	// Initial capacity capped at the limit — Scanner only enforces max
	// when growing, so a larger starting buffer would defeat small limits.
	scanner.Buffer(make([]byte, 0, min(64*1024, c.opts.maxLineBytes)), c.opts.maxLineBytes)
	for scanner.Scan() {
		var resp response
		if decodeResponse(scanner.Bytes(), &resp) != nil {
			continue // tolerate malformed or corrupted lines; deadlines recover the call
		}
		c.mu.Lock()
		pc, ok := c.pending[resp.ID]
		if ok && pc.gen == lc.gen {
			delete(c.pending, resp.ID)
		} else {
			ok = false
		}
		c.mu.Unlock()
		if ok {
			// Result aliases the scanner's buffer, which the next Scan
			// overwrites while the caller is still decoding.
			resp.Result = append(json.RawMessage(nil), resp.Result...)
			pc.ch <- resp
		}
	}
	err := scanner.Err()
	if err == nil {
		err = errors.New("amrpc: connection closed")
	}
	c.teardown(lc, err)
}

// teardown retires a dead connection generation: unregisters it as current
// and fails every pending call it carried.
func (c *Client) teardown(lc *liveConn, err error) {
	_ = lc.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == lc {
		c.cur = nil
		c.lastErr = err
	}
	for id, pc := range c.pending {
		if pc.gen != lc.gen {
			continue
		}
		delete(c.pending, id)
		pc.ch <- response{Err: err.Error(), Code: codeTransportLocal}
	}
}

// Close tears down the connection. Every pending call resolves promptly —
// Close does not depend on the reader goroutine winning any race to fail
// them.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.readers.Wait()
		return nil
	}
	c.closed = true
	cur := c.cur
	c.cur = nil
	// Resolve all pending directly, whatever generation they were on:
	// a reader that lost the race finds the map already drained.
	for id, pc := range c.pending {
		delete(c.pending, id)
		pc.ch <- response{Err: ErrClientClosed.Error(), Code: codeTransportLocal}
	}
	c.mu.Unlock()
	var err error
	if cur != nil {
		err = cur.conn.Close()
	}
	c.readers.Wait()
	return err
}

// call performs one logical request/response exchange, retrying transport
// failures per the client's policy when the call is idempotent.
func (c *Client) call(ctx context.Context, component, method, token string, priority int, fence uint64, idempotent bool, args []any) (any, error) {
	// One buffer serves the whole call: the arguments are encoded once and
	// every attempt's frame references them.
	eb := encodeBufs.Get().(*encodeBuf)
	defer encodeBufs.Put(eb)
	var rawArgs []json.RawMessage
	var err error
	if eb.args, rawArgs, err = encodeArgs(eb.args[:0], args); err != nil {
		return nil, err
	}
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && c.opts.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.callTimeout)
		defer cancel()
	}
	attempts := 1
	if idempotent {
		attempts = c.opts.retry.MaxAttempts
	}
	c.stats.calls.Add(1)
	var lastErr error
	for a := 1; ; a++ {
		c.stats.attempts.Add(1)
		result, err := c.callOnce(ctx, component, method, token, priority, fence, rawArgs)
		if err == nil {
			return result, nil
		}
		lastErr = err
		if errors.Is(err, ErrTransport) {
			c.stats.transportErrors.Add(1)
		}
		// Only transport-class failures are retryable, only on idempotent
		// calls, and never once the caller's own context has expired.
		if !errors.Is(err, ErrTransport) || a >= attempts || ctx.Err() != nil {
			return nil, err
		}
		c.stats.retries.Add(1)
		d := c.opts.retry.backoffFor(a)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, lastErr
		}
	}
}

// callOnce performs a single attempt: ensure a connection, register the
// pending call, write the frame, await the response or a deadline.
func (c *Client) callOnce(parent context.Context, component, method, token string, priority int, fence uint64, rawArgs []json.RawMessage) (any, error) {
	ctx := parent
	if d := c.opts.retry.AttemptTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, d)
		defer cancel()
	}
	lc, err := c.ensureConn(ctx)
	if err != nil {
		if parent.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
			// Only the per-attempt bound expired — the attempt spent its
			// budget waiting out the reconnect backoff. The caller is still
			// waiting; classify as transport so idempotent calls retry.
			return nil, fmt.Errorf("amrpc: %s.%s: connect attempt timed out: %w", component, method, ErrTransport)
		}
		return nil, fmt.Errorf("amrpc: %s.%s: %w", component, method, err)
	}

	var timeoutMS int64
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if parent.Err() == nil {
				return nil, fmt.Errorf("amrpc: %s.%s: attempt timed out: %w", component, method, ErrTransport)
			}
			return nil, fmt.Errorf("amrpc: %s.%s: %w", component, method, context.DeadlineExceeded)
		}
		timeoutMS = remaining.Milliseconds()
		if timeoutMS == 0 {
			timeoutMS = 1
		}
	}

	// A fresh channel per attempt, never a recycled one: a reader that has
	// already taken this attempt's pending entry may deliver after the
	// attempt gave up.
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = pendingCall{ch: ch, gen: lc.gen}
	// Another call awaiting its response on this client: the writer may
	// yield once so that this frame shares its write with theirs.
	shared := len(c.pending) > 1
	c.mu.Unlock()

	req := request{
		ID:        id,
		Component: component,
		Method:    method,
		Args:      rawArgs,
		Token:     token,
		Priority:  priority,
		TimeoutMS: timeoutMS,
		Fence:     fence,
	}
	// A nil return means the frame was written or rides the flush in
	// progress; if that flush fails, its flusher's teardown fails this call
	// through ch like any other call the connection carried.
	if err := lc.out.sendRequest(&req, shared); err != nil {
		c.unregister(id)
		c.teardown(lc, err)
		return nil, fmt.Errorf("amrpc: send %s.%s: %v: %w", component, method, err, ErrTransport)
	}

	select {
	case resp := <-ch:
		if resp.Code == codeTransportLocal {
			return nil, fmt.Errorf("amrpc: %s.%s: %s: %w", component, method, resp.Err, ErrTransport)
		}
		if resp.Err != "" {
			return nil, &RemoteError{Code: resp.Code, Msg: resp.Err, RetryAfterMS: resp.RetryAfterMS}
		}
		if len(resp.Result) == 0 {
			return nil, nil
		}
		v, err := decodeValue(resp.Result)
		if err != nil {
			return nil, fmt.Errorf("amrpc: decode result of %s.%s: %w", component, method, err)
		}
		return v, nil
	case <-ctx.Done():
		c.unregister(id)
		if parent.Err() != nil {
			// The caller's own deadline/cancellation: never retried.
			return nil, fmt.Errorf("amrpc: %s.%s: %w", component, method, parent.Err())
		}
		// Only the per-attempt bound expired — the request or response was
		// probably lost in flight. Classify as transport so idempotent
		// calls retry.
		return nil, fmt.Errorf("amrpc: %s.%s: attempt timed out: %w", component, method, ErrTransport)
	}
}

// unregister drops a pending call registration if still present.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// PendingCalls reports how many calls are awaiting responses — in-flight
// accounting for tests and monitoring.
func (c *Client) PendingCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Connected reports whether the client currently holds a live connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur != nil
}

// Stub is a remote component handle implementing the same Invoker
// interface as a local proxy.
type Stub struct {
	client     *Client
	component  string
	token      string
	priority   int
	fence      uint64
	idempotent bool
}

// StubOption configures Component.
type StubOption func(*Stub)

// WithToken attaches a bearer token to every invocation from this stub.
func WithToken(token string) StubOption {
	return func(s *Stub) { s.token = token }
}

// WithPriority sets the wait-queue priority of every invocation from this
// stub.
func WithPriority(p int) StubOption {
	return func(s *Stub) { s.priority = p }
}

// WithFenceTerm stamps every invocation from this stub with a
// domain-ownership lease term. Cluster-internal traffic (forwarded
// admissions, wake notifications) uses it so a receiver that no longer
// holds the domain's lease at this exact term refuses the call with
// naming.ErrStaleTerm instead of acting on stale ownership.
func WithFenceTerm(term uint64) StubOption {
	return func(s *Stub) { s.fence = term }
}

// WithIdempotent declares every invocation from this stub safe to repeat:
// transport failures (and per-attempt timeouts) are retried under the
// client's RetryPolicy. Application errors are never retried regardless.
func WithIdempotent() StubOption {
	return func(s *Stub) { s.idempotent = true }
}

// Component returns an invoker for the named remote component.
func (c *Client) Component(name string, opts ...StubOption) *Stub {
	s := &Stub{client: c, component: name}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Invoke performs a guarded invocation on the remote component.
func (s *Stub) Invoke(ctx context.Context, method string, args ...any) (any, error) {
	return s.client.call(ctx, s.component, method, s.token, s.priority, s.fence, s.idempotent, args)
}
