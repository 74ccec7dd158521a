package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/naming"
)

// front is the component every node serves under the public component
// name. It is the routing boundary of the plane: fenced traffic (a peer
// already resolved ownership) is executed locally iff the fence matches
// this node's live lease; unfenced traffic (an external caller that hit an
// arbitrary node) is routed — executed here or transparently forwarded to
// the owner. The server hands it every call in wire form (it is an
// amrpc.RawComponent): a call it forwards is relayed as the bytes it
// arrived in, and only a call it executes is decoded.
type front struct{ n *Node }

// Name implements amrpc.Component.
func (f *front) Name() string { return f.n.component }

// Call implements amrpc.Component: an in-process caller's invocation,
// routed as Node.Invoke routes it.
func (f *front) Call(inv *aspect.Invocation) (any, error) { return f.n.route(inv, nil) }

// CallRaw implements amrpc.RawComponent.
func (f *front) CallRaw(inv *aspect.Invocation, call amrpc.RawCall, dst []byte) ([]byte, error) {
	w := wireCall{args: call.Args, out: dst}
	if call.Fence == 0 {
		_, err := f.n.route(inv, &w)
		return w.out, err
	}
	if err := w.decode(inv); err != nil {
		return dst, err
	}
	res, err := f.n.serveFenced(inv, call.Fence)
	if err == nil {
		err = w.encode(res)
	}
	return w.out, err
}

// wireCall is a remote caller's call on its way through route: the
// arguments as its frame carried them, decoded into the invocation only if
// this node executes the call, and the buffer its result is appended to in
// wire form — the owner's bytes verbatim when the call is forwarded.
type wireCall struct {
	args    []json.RawMessage
	decoded bool
	out     []byte
}

// decode puts the call's arguments into inv, once.
func (w *wireCall) decode(inv *aspect.Invocation) error {
	if w.decoded {
		return nil
	}
	args, err := amrpc.DecodeArgs(w.args)
	if err != nil {
		return err
	}
	inv.SetArgs(args)
	w.decoded = true
	return nil
}

// encode appends the result of a call this node executed to out.
func (w *wireCall) encode(res any) error {
	out, err := amrpc.AppendValue(w.out, res)
	if err != nil {
		return fmt.Errorf("unencodable result: %w", err)
	}
	w.out = out
	return nil
}

// Invoke lets in-process callers (tests, embedded deployments) enter the
// plane through this node, with the same routing as remote callers. It
// implements the proxy.Invoker interface.
func (n *Node) Invoke(ctx context.Context, method string, args ...any) (any, error) {
	inv := aspect.NewInvocation(ctx, n.component, method, args)
	result, err := n.route(inv, nil)
	inv.Release()
	return result, err
}

// serveFenced executes an admission a peer routed here under a fence term.
// The fence must match this node's live lease on the method's domain
// exactly; otherwise the effect is refused — this is what makes a stale
// owner (or a peer routing on a stale ownership view) harmless.
func (n *Node) serveFenced(inv *aspect.Invocation, fence uint64) (any, error) {
	domain := n.domainOf(inv.Method())
	term, ok := n.owns(domain)
	if !ok || term != fence {
		n.staleRefusals.Add(1)
		n.logf("cluster %s: refused %s (domain %s): fence %d vs held %d (owned=%v)",
			n.cfg.ID, inv.Method(), domain, fence, term, ok)
		return nil, fmt.Errorf("cluster %s: domain %s at term %d: %w", n.cfg.ID, domain, fence, naming.ErrStaleTerm)
	}
	return n.localCall(inv)
}

// localCall executes the invocation on the local guarded component. The
// in-flight counter brackets the admission so a graceful release can
// drain before flushing its final state handoff; the ownership re-check
// after registering closes the race with a concurrent release — an
// admission that slips past it is either counted (and drained) or
// refused here.
func (n *Node) localCall(inv *aspect.Invocation) (any, error) {
	domain := n.domainOf(inv.Method())
	c := n.inflightFor(domain)
	c.Add(1)
	defer c.Add(-1)
	if _, ok := n.owns(domain); !ok {
		return nil, fmt.Errorf("cluster %s: domain %s: ownership lapsed before execution: %w",
			n.cfg.ID, domain, naming.ErrStaleTerm)
	}
	n.localCalls.Add(1)
	return n.cfg.Local.Call(inv)
}

// The router's pause before routing attempt n is
// amrpc.Backoff(routeBackoffBase, routeBackoffMax, n).
const (
	routeBackoffBase = 20 * time.Millisecond
	routeBackoffMax  = 150 * time.Millisecond
)

// route drives one invocation to the current owner of its domain, chasing
// ownership through stale-term refusals and owner deaths. Each round either
// executes locally (we own the domain), forwards under the owner's term, or
// refreshes the ownership view and backs off — so a call arriving during a
// failover window simply waits out the lease handover. A remote caller's
// call comes with w, which carries its arguments in and its result out in
// wire form; an in-process caller's, with a nil w, carries them on inv.
func (n *Node) route(inv *aspect.Invocation, w *wireCall) (any, error) {
	ctx := inv.Context()
	method := inv.Method()
	domain := n.domainOf(method)
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			n.forwardRetries.Add(1)
			t := time.NewTimer(amrpc.Backoff(routeBackoffBase, routeBackoffMax, attempt))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-n.stop:
				t.Stop()
				return nil, fmt.Errorf("cluster: node %s closed", n.cfg.ID)
			}
		}

		if _, ok := n.owns(domain); ok {
			if w != nil {
				if err := w.decode(inv); err != nil {
					return nil, err
				}
			}
			res, err := n.localCall(inv)
			if err != nil && errors.Is(err, naming.ErrStaleTerm) {
				// Ownership lapsed between the check and execution (a
				// graceful release won the race): resolve afresh.
				lastErr = err
				continue
			}
			if w != nil && err == nil {
				return nil, w.encode(res)
			}
			return res, err
		}
		r, err := n.routeFor(domain, attempt > 0)
		if err != nil {
			lastErr = err
			continue // no live owner yet (failover window): back off and retry
		}
		if r.holder == n.cfg.ID {
			// The directory says us, but owns() said no — our lease view is
			// mid-transition (margin expired, renewal pending). Invalidate
			// and resolve afresh.
			n.invalidateRoute(domain, r)
			lastErr = fmt.Errorf("cluster: node %s: stale self-route for %s", n.cfg.ID, domain)
			continue
		}

		res, err := n.forward(ctx, r, inv, w)
		switch {
		case err == nil:
			n.forwards.Add(1)
			return res, nil
		case errors.Is(err, naming.ErrStaleTerm):
			// The peer refused our fence: our ownership view is behind.
			n.invalidateRoute(domain, r)
			lastErr = err
		case errors.Is(err, amrpc.ErrTransport):
			// The owner is unreachable (or died mid-call). Drop the pooled
			// connection and the route. If the method is not idempotent and
			// the request may have executed, surface the failure instead of
			// risking a duplicate effect.
			n.dropPeer(r.addr)
			n.invalidateRoute(domain, r)
			if !n.cfg.Idempotent {
				return nil, err
			}
			lastErr = err
		default:
			// An application-level decision by the owner's aspects or
			// component: authoritative, never retried here.
			return nil, err
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: no owner for domain %s", domain)
	}
	return nil, fmt.Errorf("cluster %s: routing %s.%s failed after %d attempts: %w",
		n.cfg.ID, n.component, method, routeAttempts, lastErr)
}

// routeFor returns the cached route for domain, consulting the naming
// service when the cache is cold, stale, or a refresh is forced.
func (n *Node) routeFor(domain string, force bool) (route, error) {
	n.mu.Lock()
	r, ok := n.routes[domain]
	n.mu.Unlock()
	if ok && !force && time.Since(r.fetchedAt) < n.cfg.LeaseTTL {
		return r, nil
	}
	lease, err := n.nc.LookupLease(domain)
	if err != nil {
		return route{}, err
	}
	var addr string
	n.mu.Lock()
	addr, ok = n.members[lease.Holder]
	n.mu.Unlock()
	if !ok {
		// The holder is not in our membership view yet; resolve directly.
		e, err := n.nc.Lookup(memberPrefix + lease.Holder)
		if err != nil {
			return route{}, err
		}
		addr = e.Addr
	}
	n.mu.Lock()
	fresh := n.learnRoute(domain, route{holder: lease.Holder, term: lease.Term, addr: addr, fetchedAt: time.Now()})
	n.mu.Unlock()
	return fresh, nil
}

// invalidateRoute drops a cached route if it is still the one we acted on.
func (n *Node) invalidateRoute(domain string, r route) {
	n.mu.Lock()
	if cur, ok := n.routes[domain]; ok && cur.holder == r.holder && cur.term == r.term {
		delete(n.routes, domain)
	}
	n.mu.Unlock()
}

// forward proxies inv to the owner under its lease term, re-attaching the
// caller's metadata (token, priority, remaining deadline travel with the
// stub and the context). A remote caller's call is relayed: its argument
// bytes go into the owner's frame and the owner's result bytes onto w.out,
// neither decoded here.
func (n *Node) forward(ctx context.Context, r route, inv *aspect.Invocation, w *wireCall) (any, error) {
	p, err := n.peerFor(r.addr)
	if err != nil {
		return nil, err
	}
	token, _ := auth.TokenOf(inv)
	stub := p.stub(stubKey{term: r.term, priority: inv.Priority, token: token}, func() *amrpc.Stub {
		opts := []amrpc.StubOption{amrpc.WithFenceTerm(r.term), amrpc.WithPriority(inv.Priority)}
		if token != "" {
			opts = append(opts, amrpc.WithToken(token))
		}
		if n.cfg.Idempotent {
			opts = append(opts, amrpc.WithIdempotent())
		}
		return p.client.Component(n.component, opts...)
	})
	if w == nil {
		return stub.Invoke(ctx, inv.Method(), inv.Args()...)
	}
	out, err := stub.InvokeRaw(ctx, inv.Method(), w.args, w.out)
	w.out = out
	return nil, err
}

// controlCall calls method on the control component of member id, at
// addr, over the pooled data-plane connection to it — so plane traffic
// meets the same faults as forwarded admissions. Every control endpoint
// is idempotent, so the stub retries transport failures within ctx.
func (n *Node) controlCall(ctx context.Context, id, addr, method string, args ...any) (any, error) {
	p, err := n.peerFor(addr)
	if err != nil {
		return nil, err
	}
	stub := p.stub(stubKey{control: id}, func() *amrpc.Stub {
		return p.client.Component(controlName(id), amrpc.WithIdempotent())
	})
	res, err := stub.Invoke(ctx, method, args...)
	if errors.Is(err, amrpc.ErrTransport) {
		n.dropPeer(addr)
	}
	return res, err
}

// peer is the pooled data-plane connection to one node, with the stubs the
// plane calls it through. A stub is immutable once built, so calls share
// it instead of building a Stub and its option closures each.
type peer struct {
	client *amrpc.Client

	mu    sync.Mutex
	stubs map[stubKey]*amrpc.Stub
}

// stubKey is what a cached stub was built with, besides its peer.
type stubKey struct {
	control  string // the node whose control component it calls; "" for the public one
	term     uint64 // the fence term it stamps; 0 for none
	priority int
	token    string
}

// maxPeerStubs bounds a peer's stub cache. Terms only grow and tokens come
// and go, so a full cache is emptied, not grown.
const maxPeerStubs = 16

// stub returns the peer's stub for key, built by build on first use.
func (p *peer) stub(key stubKey, build func() *amrpc.Stub) *amrpc.Stub {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.stubs[key]; ok {
		return s
	}
	if len(p.stubs) == maxPeerStubs {
		clear(p.stubs)
	}
	s := build()
	p.stubs[key] = s
	return s
}

// peerFor returns (dialing if needed) the pooled data-plane peer at addr.
func (n *Node) peerFor(addr string) (*peer, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("cluster: node %s closed: %w", n.cfg.ID, amrpc.ErrTransport)
	}
	if p, ok := n.peers[addr]; ok {
		n.mu.Unlock()
		return p, nil
	}
	n.mu.Unlock()

	conn, err := n.cfg.DialConn(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %v: %w", addr, err, amrpc.ErrTransport)
	}
	addrCopy := addr
	opts := append([]amrpc.ClientOption{amrpc.WithDialFunc(func() (net.Conn, error) {
		return n.cfg.DialConn(addrCopy)
	})}, n.cfg.ClientOptions...)
	c := amrpc.NewClient(conn, opts...)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		_ = c.Close()
		return nil, fmt.Errorf("cluster: node %s closed: %w", n.cfg.ID, amrpc.ErrTransport)
	}
	if existing, ok := n.peers[addr]; ok {
		_ = c.Close()
		return existing, nil
	}
	p := &peer{client: c, stubs: make(map[stubKey]*amrpc.Stub, 4)}
	n.peers[addr] = p
	return p, nil
}

// dropPeer retires a pooled connection, and its stubs, after a transport
// failure.
func (n *Node) dropPeer(addr string) {
	n.mu.Lock()
	p, ok := n.peers[addr]
	if ok {
		delete(n.peers, addr)
	}
	n.mu.Unlock()
	if ok {
		_ = p.client.Close()
	}
}
