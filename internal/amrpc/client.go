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
// errors the remote component returned). The cluster router re-routes on
// it, and the client's retry policy retries idempotent calls on it.
var ErrTransport = errors.New("amrpc: transport failure")

// codeTransportLocal is a client-internal marker used when failing pending
// calls; it never travels on the wire.
const codeTransportLocal = "_local-transport"

// lineLimit caps one frame line: always on the client's reader, and on the
// server's unless WithMaxLineBytes overrides it.
const lineLimit = 4 * 1024 * 1024

// Backoff returns the pause before retry n (1-based) of a schedule that
// starts at base and doubles up to max, both positive. The pause is drawn
// uniformly from [d/2, d] for the schedule's d (equal jitter):
// synchronized callers spread out, yet none waits less than half the
// schedule. A base above max is capped, and no n overflows.
func Backoff(base, max time.Duration, n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := max
	if base <= max>>uint(n-1) {
		d = base << uint(n-1)
	}
	return d - time.Duration(rand.Int63n(int64(d/2)+1))
}

// RetryPolicy controls transport-failure retries for idempotent calls, and
// paces re-dials. Application errors (RemoteError) and caller-context
// cancellation are never retried — retrying is for unreachable or flaky
// transports, not for decisions the remote component already made.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per call (1 = no
	// retry). Zero means the default of 1.
	MaxAttempts int
	// BaseBackoff and MaxBackoff shape the client's one Backoff schedule:
	// the pause before retry n of a call, and the wait before the next
	// dial after n consecutive dial failures. Zero means 20ms and 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
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
		p.BaseBackoff = 20 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// clientOptions is the resolved configuration of a Client.
type clientOptions struct {
	dial  func() (net.Conn, error)
	retry RetryPolicy
}

// ClientOption configures Dial/NewClient.
type ClientOption func(*clientOptions)

// WithDialFunc supplies the function used to establish (and re-establish)
// the connection. Setting it enables automatic reconnect: when the
// connection dies, the next call re-dials, paced by the retry policy's
// Backoff schedule, instead of failing forever. Tests use it to route the
// client through a chaosnet injector.
func WithDialFunc(dial func() (net.Conn, error)) ClientOption {
	return func(o *clientOptions) { o.dial = dial }
}

// WithRetry sets the client's retry policy. Its retries apply only to
// calls made through stubs marked idempotent (WithIdempotent): transport
// failures and per-attempt timeouts are retried, application errors never.
// Its backoff schedule also paces every re-dial.
func WithRetry(p RetryPolicy) ClientOption {
	return func(o *clientOptions) { o.retry = p }
}

// encodeBuf is the scratch space of one call: its encoded arguments and the
// raw value of each, slices of the same buffer. Each attempt's frame is
// encoded straight into its connection's frameWriter.
type encodeBuf struct {
	args valueEncoder
	raws []json.RawMessage
}

var encodeBufs = sync.Pool{New: func() any { return new(encodeBuf) }}

func (eb *encodeBuf) recycle() {
	if cap(eb.args.buf) > maxRecycled {
		eb.args.buf = nil
	}
	clear(eb.raws)
	encodeBufs.Put(eb)
}

// replySlot is where one attempt's response arrives: a one-buffered channel
// and the buffer the reader copies the result into, since the line it was
// read from is overwritten by the next. Exactly one response is sent per
// pending entry, by whoever removes the entry from Client.pending (the
// reader, a teardown, Close). So a caller that has received from the
// channel holds the slot alone and may recycle it; a caller that stops
// waiting — its context done, its send failed — never does: whoever took
// its entry may still be about to deliver into the slot, and the response
// must not reach a later call.
type replySlot struct {
	ch     chan response
	result []byte
}

var replySlots = sync.Pool{New: func() any { return &replySlot{ch: make(chan response, 1)} }}

// recycle returns a slot whose response its caller has received.
func (s *replySlot) recycle() {
	if cap(s.result) > maxRecycled {
		s.result = nil
	}
	replySlots.Put(s)
}

// liveConn is one established connection generation. The write side is
// its frameWriter, shared by every caller; the read side is owned by
// exactly one readLoop goroutine.
type liveConn struct {
	conn net.Conn
	gen  uint64
	out  *frameWriter
}

// pendingCall tracks one in-flight request: the slot its response goes to
// and the connection generation that carries it, so tearing down one
// connection fails exactly the calls it was carrying.
type pendingCall struct {
	slot *replySlot
	gen  uint64
}

// Client is a connection to an amrpc server. Requests are pipelined: many
// goroutines may invoke concurrently. When constructed with a dial
// function (Dial does this), a broken connection is re-established
// transparently on the next call, paced by the retry policy's Backoff.
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
	var o clientOptions
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
			// The retry schedule's equal jitter keeps a herd of reconnecting
			// clients from hammering a recovering server in lockstep.
			p := c.opts.retry
			c.nextDialAt = time.Now().Add(Backoff(p.BaseBackoff, p.MaxBackoff, c.dialFails))
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
	scanner.Buffer(make([]byte, 0, 64*1024), lineLimit)
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
			pc.slot.result = append(pc.slot.result[:0], resp.Result...)
			resp.Result = pc.slot.result
			pc.slot.ch <- resp
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
		pc.slot.ch <- response{Err: err.Error(), Code: codeTransportLocal}
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
		pc.slot.ch <- response{Err: ErrClientClosed.Error(), Code: codeTransportLocal}
	}
	c.mu.Unlock()
	var err error
	if cur != nil {
		err = cur.conn.Close()
	}
	c.readers.Wait()
	return err
}

// callResult is where a call's reply goes: decoded into value, or — for
// InvokeRaw — appended verbatim to raw.
type callResult struct {
	value any
	raw   []byte
	isRaw bool
}

// take turns one attempt's response into the call's result. It runs before
// the attempt's reply slot is recycled: neither the decoded value nor the
// appended bytes alias the slot's buffer.
func (r *callResult) take(resp *response, component, method string) error {
	if resp.Code == codeTransportLocal {
		return fmt.Errorf("amrpc: %s.%s: %s: %w", component, method, resp.Err, ErrTransport)
	}
	if resp.Err != "" {
		return &RemoteError{Code: resp.Code, Msg: resp.Err, RetryAfterMS: resp.RetryAfterMS}
	}
	switch {
	case r.isRaw && len(resp.Result) == 0:
		r.raw = append(r.raw, "null"...)
	case r.isRaw:
		r.raw = append(r.raw, resp.Result...)
	case len(resp.Result) > 0:
		v, err := decodeValue(resp.Result)
		if err != nil {
			return fmt.Errorf("amrpc: decode result of %s.%s: %w", component, method, err)
		}
		r.value = v
	}
	return nil
}

// call performs one logical request/response exchange through s, retrying
// transport failures per the client's policy when s is idempotent. Every
// attempt's frame carries the same wire-form arguments, args; the reply
// goes to out.
func (c *Client) call(ctx context.Context, s *Stub, method string, args []json.RawMessage, out *callResult) error {
	attempts := 1
	if s.idempotent {
		attempts = c.opts.retry.MaxAttempts
	}
	c.stats.calls.Add(1)
	for a := 1; ; a++ {
		c.stats.attempts.Add(1)
		err := c.callOnce(ctx, s, method, args, out)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrTransport) {
			c.stats.transportErrors.Add(1)
		}
		// Only transport-class failures are retryable, only on idempotent
		// calls, and never once the caller's own context has expired.
		if !errors.Is(err, ErrTransport) || a >= attempts || ctx.Err() != nil {
			return err
		}
		c.stats.retries.Add(1)
		p := c.opts.retry
		t := time.NewTimer(Backoff(p.BaseBackoff, p.MaxBackoff, a))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// callOnce performs a single attempt: ensure a connection, register the
// pending call, write the frame, await the response or a deadline.
func (c *Client) callOnce(parent context.Context, s *Stub, method string, rawArgs []json.RawMessage, out *callResult) error {
	component := s.component
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
			return fmt.Errorf("amrpc: %s.%s: connect attempt timed out: %w", component, method, ErrTransport)
		}
		return fmt.Errorf("amrpc: %s.%s: %w", component, method, err)
	}

	var timeoutMS int64
	if deadline, ok := ctx.Deadline(); ok {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if parent.Err() == nil {
				return fmt.Errorf("amrpc: %s.%s: attempt timed out: %w", component, method, ErrTransport)
			}
			return fmt.Errorf("amrpc: %s.%s: %w", component, method, context.DeadlineExceeded)
		}
		timeoutMS = remaining.Milliseconds()
		if timeoutMS == 0 {
			timeoutMS = 1
		}
	}

	slot := replySlots.Get().(*replySlot)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		slot.recycle()
		return ErrClientClosed
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = pendingCall{slot: slot, gen: lc.gen}
	// Another call awaiting its response on this client: the writer may
	// yield once so that this frame shares its write with theirs.
	shared := len(c.pending) > 1
	c.mu.Unlock()

	req := request{
		ID:        id,
		Component: component,
		Method:    method,
		Args:      rawArgs,
		Token:     s.token,
		Priority:  s.priority,
		TimeoutMS: timeoutMS,
		Fence:     s.fence,
	}
	// A nil return means the frame was written or rides the flush in
	// progress; if that flush fails, its flusher's teardown fails this call
	// through ch like any other call the connection carried.
	if err := lc.out.sendRequest(&req, shared); err != nil {
		c.unregister(id)
		c.teardown(lc, err)
		return fmt.Errorf("amrpc: send %s.%s: %v: %w", component, method, err, ErrTransport)
	}

	select {
	case resp := <-slot.ch:
		err := out.take(&resp, component, method)
		slot.recycle()
		return err
	case <-ctx.Done():
		// The slot stays out of the pool: a sender that took the pending
		// entry first may still deliver into it.
		c.unregister(id)
		if parent.Err() != nil {
			// The caller's own deadline/cancellation: never retried.
			return fmt.Errorf("amrpc: %s.%s: %w", component, method, parent.Err())
		}
		// Only the per-attempt bound expired — the request or response was
		// probably lost in flight. Classify as transport so idempotent
		// calls retry.
		return fmt.Errorf("amrpc: %s.%s: attempt timed out: %w", component, method, ErrTransport)
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
// domain-ownership lease term. Forwarded cluster admissions use it so a
// receiver that no longer
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
	// One buffer serves the whole call: the arguments are encoded once and
	// every attempt's frame references them.
	eb := encodeBufs.Get().(*encodeBuf)
	defer eb.recycle()
	eb.args.buf = eb.args.buf[:0]
	var err error
	if eb.raws, err = eb.args.addArgs(eb.raws[:0], args); err != nil {
		return nil, err
	}
	var out callResult
	err = s.client.call(ctx, s, method, eb.raws, &out)
	return out.value, err
}

// InvokeRaw is Invoke for a caller that holds the arguments in wire form —
// a RawComponent passing a call on — and wants the result in wire form too.
// Each argument goes into the frame verbatim, every attempt's frame
// carrying the same bytes, so args must stay valid until InvokeRaw returns;
// one that is not a JSON value a frame can carry on one line fails the call
// before anything is sent. The result's bytes are appended verbatim to dst,
// and the extended slice returned; on an error dst comes back as it was.
func (s *Stub) InvokeRaw(ctx context.Context, method string, args []json.RawMessage, dst []byte) ([]byte, error) {
	for i, a := range args {
		if !carriable(a) {
			return dst, fmt.Errorf("amrpc: %s.%s: arg %d is not one JSON value on one line", s.component, method, i)
		}
	}
	out := callResult{raw: dst, isRaw: true}
	err := s.client.call(ctx, s, method, args, &out)
	return out.raw, err
}
