package amrpc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/proxy"
)

// ErrNoSuchComponent is returned for requests naming an unregistered
// component.
var ErrNoSuchComponent = errors.New("amrpc: no such component")

// Component is anything the server can host: the guarded proxy of the
// classic single-node deployment, or a cluster node's routing front that
// decides per-invocation whether to execute locally or forward to the
// domain owner. *proxy.Proxy satisfies it as-is.
type Component interface {
	Name() string
	Call(inv *aspect.Invocation) (any, error)
}

// ShedPolicy decides, before a request is dispatched to a worker, whether
// the server should refuse it outright with CodeOverloaded. It is the hook
// through which admission-aware load shedding reaches the transport: a
// deployment wires in the moderator's parked-waiter count (Pressure) and
// sheds when too many callers are already parked to park another — the
// request never reaches an aspect, so no guard state changes. The returned
// retryAfterMS travels to the client as a backoff hint (0 = no hint).
type ShedPolicy func(component, method string) (retryAfterMS int64, shed bool)

// Server hosts guarded components behind a TCP listener. Construct with
// NewServer, register components, then call Serve.
type Server struct {
	readTimeout   time.Duration
	maxLineBytes  int
	maxConcurrent int
	shed          ShedPolicy
	stats         serverStats

	// components is the registration table, published copy-on-write so
	// that handle reads it without a lock; writers hold mu.
	components atomic.Pointer[map[string]hosted]

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// hosted is one registered component under the name it was registered
// by: the one copy of that name every request addressing it uses. raw is
// the component as a RawComponent, nil when it is not one.
type hosted struct {
	name string
	c    Component
	raw  RawComponent
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithReadTimeout sets the per-connection inactivity deadline (default 5
// minutes; 0 disables). The deadline is refreshed on every received line
// and every written response, so any live traffic keeps a connection open;
// a peer that goes silent — including one trickling bytes that never form
// a full line — is disconnected, so it cannot pin a handler goroutine
// forever.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithMaxLineBytes caps the size of one request frame (default 4 MiB). A
// peer sending an oversized line is disconnected rather than allowed to
// grow the server's buffers without bound.
func WithMaxLineBytes(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxLineBytes = n
		}
	}
}

// WithMaxConcurrentPerConn bounds the worker pool serving one connection
// (default 256). A pipelining client can keep at most n requests in flight
// plus n queued; beyond that the server answers CodeOverloaded instead of
// spawning goroutines, so one connection cannot exhaust the process.
func WithMaxConcurrentPerConn(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxConcurrent = n
		}
	}
}

// WithShedPolicy installs the admission-aware shed hook. A nil policy (the
// default) never sheds.
func WithShedPolicy(p ShedPolicy) ServerOption {
	return func(s *Server) { s.shed = p }
}

// NewServer creates an empty server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		readTimeout:   5 * time.Minute,
		maxLineBytes:  lineLimit,
		maxConcurrent: 256,
		listeners:     make(map[net.Listener]struct{}, 1),
		conns:         make(map[net.Conn]struct{}, 16),
	}
	s.components.Store(&map[string]hosted{})
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Register exposes a guarded component under its proxy name.
func (s *Server) Register(p *proxy.Proxy) error {
	if p == nil {
		return errors.New("amrpc: register nil proxy")
	}
	return s.RegisterComponent(p)
}

// RegisterComponent exposes any Component under its reported name.
func (s *Server) RegisterComponent(c Component) error {
	if c == nil {
		return errors.New("amrpc: register nil component")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	name := c.Name()
	old := *s.components.Load()
	if _, dup := old[name]; dup {
		return fmt.Errorf("amrpc: component %q already registered", name)
	}
	table := maps.Clone(old)
	raw, _ := c.(RawComponent)
	table[name] = hosted{name: name, c: c, raw: raw}
	s.components.Store(&table)
	return nil
}

// methodCacheSize bounds a connection's method-name cache: a peer sending
// ever new names gets them copied per frame, never a growing map.
const methodCacheSize = 64

// nameCache interns the names the requests of one connection carry, so
// decoding a request copies no name the server already holds: component
// names from the component table, method names from a map of at most
// methodCacheSize entries filled as they arrive. It belongs to the
// connection's reader.
type nameCache struct {
	table   *atomic.Pointer[map[string]hosted]
	methods map[string]string
}

func (c *nameCache) component(name []byte) (string, bool) {
	h, ok := (*c.table.Load())[string(name)]
	return h.name, ok
}

func (c *nameCache) method(name []byte) (string, bool) {
	if s, ok := c.methods[string(name)]; ok {
		return s, true
	}
	if len(c.methods) == methodCacheSize {
		return "", false
	}
	s := string(name)
	c.methods[s] = s
	return s, true
}

// maxRecycled is the largest buffer a recycled request line, result buffer,
// reply slot or encode buffer keeps: one huge frame is not held for the
// life of the pool.
const maxRecycled = 64 * 1024

// inbound is one request line and the request decoded from it, whose raw
// args alias the line. The reader fills one per frame and the worker that
// handles it recycles it once the reply is sent: nothing decoded from the
// args, nor the reply, refers to the line by then.
type inbound struct {
	line []byte
	req  request
	args []json.RawMessage // the backing array req.Args is decoded into
}

var inbounds = sync.Pool{New: func() any { return new(inbound) }}

func (in *inbound) recycle() {
	if cap(in.line) > maxRecycled {
		in.line = nil
	}
	if cap(in.req.Args) > cap(in.args) {
		in.args = in.req.Args // a longer list than any before grew a new array
	}
	clear(in.args[:cap(in.args)])
	in.req = request{Args: in.args[:0]}
	inbounds.Put(in)
}

// Serve accepts connections on ln until Close is called or the listener
// fails. It blocks; run it on a goroutine you own. Each connection runs a
// reader and a bounded worker pool (MaxConcurrentPerConn) whose workers
// write their own responses through the connection's combining frame
// writer: requests on a connection are processed concurrently so a blocked
// invocation does not stall the pipe, but one pipelining client can never
// spawn more than its cap of handler goroutines.
func (s *Server) Serve(ln net.Listener) error {
	// Serve owns ln from here on (like net/http): it is closed when Serve
	// returns, so a Close racing with Serve's startup cannot leak an open
	// listener that nobody accepts from.
	defer func() { _ = ln.Close() }()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("amrpc: server closed")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("amrpc: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.conns.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every live connection, and waits for
// handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for ln := range s.listeners {
		_ = ln.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// serveConn runs one connection's pipeline: the reader goroutine (this
// one) decodes frames and dispatches them to a bounded worker pool; every
// reply — a worker's response, a shed, a malformed-frame or queue-full
// refusal — leaves through the connection's frameWriter, the same
// combining writer the client sends requests with. There is no writer
// goroutine: the worker that finishes while no flush is in progress writes,
// and carries whatever the other workers append meanwhile. Workers are
// spawned lazily up to MaxConcurrentPerConn, so an idle or strictly
// sequential client costs one worker, while a pipelining client is capped
// instead of spawning a goroutine per request. serveConn returns only after
// every accepted request's response has been handed to the socket: a
// worker's send returns early only while another sender — a worker, or this
// goroutine — is still flushing.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Worker goroutines of this connection are cancelled when the
	// connection dies, so blocked invocations do not leak.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// touch refreshes the inactivity deadline; reads and response writes
	// both count as liveness.
	touch := func() {
		if s.readTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
	}

	out := newFrameWriter(conn, func(frames int) {
		s.stats.flushes.Add(1)
		s.stats.flushFrames.Add(uint64(frames))
		touch()
	})
	// inFlight counts the requests dispatched to the pool and not yet
	// answered. A reply sent while others are in flight tells the writer
	// so (its yield rule); own is 1 for a worker answering its request, 0
	// for the reader's refusals. A write error is dropped here: the socket
	// is dead, which the reader is about to find out.
	var inFlight atomic.Int64
	reply := func(resp *response, own int64) {
		_ = out.sendResponse(resp, inFlight.Load() > own)
	}

	// The bounded worker pool. Workers are spawned on demand while the
	// queue has work nobody picked up, never beyond the cap; each exits
	// when the queue closes. A worker encodes every result into its own
	// buffer, which the reply has copied out by the time it returns.
	workCh := make(chan *inbound, s.maxConcurrent)
	var workers sync.WaitGroup
	spawned := 0
	spawnWorker := func() {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var results valueEncoder
			for in := range workCh {
				resp := s.handle(ctx, &in.req, &results)
				if resp.Err != "" {
					s.stats.errorReplies.Add(1)
				}
				reply(&resp, 1)
				inFlight.Add(-1)
				in.recycle()
			}
		}()
	}

	touch()
	scanner := bufio.NewScanner(conn)
	// The initial capacity must not exceed the cap: Scanner only enforces
	// its max when growing, so any token fitting the starting buffer would
	// sneak past a smaller configured limit.
	scanner.Buffer(make([]byte, 0, min(64*1024, s.maxLineBytes)), s.maxLineBytes)
	names := nameCache{table: &s.components, methods: make(map[string]string)}
	for scanner.Scan() {
		touch()
		// The decoded request aliases its line and is handed to a worker
		// that outlives the next Scan, so it gets a line of its own.
		in := inbounds.Get().(*inbound)
		in.line = append(in.line[:0], scanner.Bytes()...)
		req := &in.req
		if err := decodeRequestInterned(in.line, req, &names); err != nil {
			in.recycle()
			if errors.Is(err, errChecksum) {
				// A corrupted frame: nothing in it — including its ID — can
				// be trusted, so drop it silently and let the client's
				// deadline + retry recover the call.
				s.stats.checksumDrops.Add(1)
				continue
			}
			s.stats.malformed.Add(1)
			reply(&response{Err: "malformed request: " + err.Error(), Code: CodeBadRequest}, 0)
			continue
		}
		s.stats.requests.Add(1)
		if s.shed != nil {
			if retryAfter, shed := s.shed(req.Component, req.Method); shed {
				s.stats.sheds.Add(1)
				reply(&response{
					ID:           req.ID,
					Err:          "overloaded: admission pressure",
					Code:         CodeOverloaded,
					RetryAfterMS: retryAfter,
				}, 0)
				in.recycle()
				continue
			}
		}
		if len(workCh) > 0 {
			// Approximate: the request is about to wait behind others.
			s.stats.queued.Add(1)
		}
		inFlight.Add(1)
		select {
		case workCh <- in:
			if spawned == 0 || (spawned < s.maxConcurrent && len(workCh) > 0) {
				spawned++
				spawnWorker()
			}
		default:
			// Cap workers in flight + cap requests queued: the pipe is as
			// full as this connection is allowed to make it.
			inFlight.Add(-1)
			s.stats.rejected.Add(1)
			reply(&response{
				ID:   req.ID,
				Err:  "overloaded: connection work queue full",
				Code: CodeOverloaded,
			}, 0)
			in.recycle()
		}
	}

	// Reader done: release any parked invocation and let the workers drain
	// what was already queued; the last of them to send flushes the rest.
	cancel()
	close(workCh)
	workers.Wait()
}

// handle executes one request against the named component. A result is
// encoded into results.buf, which the response aliases.
func (s *Server) handle(ctx context.Context, req *request, results *valueEncoder) response {
	h, ok := (*s.components.Load())[req.Component]
	if !ok {
		return response{
			ID:   req.ID,
			Err:  fmt.Sprintf("component %q", req.Component),
			Code: CodeNoComponent,
		}
	}
	var args []any
	if h.raw == nil {
		var err error
		if args, err = DecodeArgs(req.Args); err != nil {
			return refusal(req.ID, err)
		}
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	inv := aspect.NewInvocation(ctx, h.name, req.Method, args)
	inv.Priority = req.Priority
	if req.Token != "" {
		auth.WithToken(inv, req.Token)
	}
	results.buf = results.buf[:0]
	if cap(results.buf) > maxRecycled {
		results.buf = nil
	}
	if h.raw != nil {
		// The arguments alias the request line, which the worker recycles
		// only after the reply: they stay valid for all of CallRaw, as
		// RawComponent promises.
		out, err := h.raw.CallRaw(inv, RawCall{Args: req.Args, Fence: req.Fence}, results.buf)
		inv.Release()
		if err != nil {
			return refusal(req.ID, err)
		}
		results.buf = out
		if !carriable(out) {
			return response{
				ID:   req.ID,
				Err:  fmt.Sprintf("unencodable result: %d bytes that are not one JSON value on one line", len(out)),
				Code: CodeInternal,
			}
		}
		return response{ID: req.ID, Result: out}
	}
	result, err := h.c.Call(inv)
	inv.Release()
	if err != nil {
		return refusal(req.ID, err)
	}
	if err := results.add(result); err != nil {
		return response{
			ID:   req.ID,
			Err:  fmt.Sprintf("unencodable result: %v", err),
			Code: CodeInternal,
		}
	}
	return response{ID: req.ID, Result: results.buf}
}

// refusal is the response to a call that failed with err. A *RemoteError —
// a peer's refusal the component passes on — keeps its code and retry-after
// hint, and its message unless the component wrapped it; any other error is
// classified by codeFor.
func refusal(id uint64, err error) response {
	var re *RemoteError
	if !errors.As(err, &re) {
		return response{ID: id, Err: err.Error(), Code: codeFor(err)}
	}
	msg := re.Msg
	if err != error(re) {
		msg = err.Error()
	}
	return response{ID: id, Err: msg, Code: re.Code, RetryAfterMS: re.RetryAfterMS}
}
