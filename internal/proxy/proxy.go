// Package proxy implements the component proxy of the framework: the
// object standing in for a functional component that brackets every call to
// a participating method between the moderator's pre-activation and
// post-activation phases (the paper's TicketServerProxy, Figures 3 and 10).
//
// Go offers no dynamic proxies over arbitrary types without reflection, so
// — faithfully to the paper's Figure 10, which hand-writes one guard per
// method — a Proxy is an explicit method table: the functional component's
// services are bound by name as closures, and Invoke dispatches through the
// guard.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/aspect"
	"repro/internal/moderator"
)

// ErrNoSuchMethod is returned by Invoke for an unbound method name.
var ErrNoSuchMethod = errors.New("proxy: no such method")

// Invoker is the calling side of a guarded component: the local Proxy and
// the RPC client stub both implement it, so aspects and applications are
// indifferent to component location (the paper's location transparency).
type Invoker interface {
	Invoke(ctx context.Context, method string, args ...any) (any, error)
}

// Method is one service of the functional component, bound into the proxy's
// method table. It receives the invocation for access to arguments and
// attributes, and returns the service's result. The invocation is valid
// only until the method returns (see aspect.Invocation): a body keeps the
// values it reads from it, never the pointer.
type Method func(inv *aspect.Invocation) (any, error)

// Proxy guards a functional component. Construct with New.
type Proxy struct {
	mod *moderator.Moderator

	mu      sync.RWMutex
	methods map[string]Method
}

var _ Invoker = (*Proxy)(nil)

// New creates a proxy dispatching through the given moderator. The proxy
// adopts the moderator's component name.
func New(mod *moderator.Moderator) *Proxy {
	return &Proxy{
		mod:     mod,
		methods: make(map[string]Method, 8),
	}
}

// Name returns the component name (the moderator's name).
func (p *Proxy) Name() string { return p.mod.Name() }

// Moderator returns the moderator the proxy dispatches through, for aspect
// registration and statistics.
func (p *Proxy) Moderator() *moderator.Moderator { return p.mod }

// Bind adds a participating method to the proxy's method table. Binding a
// name twice or binding a nil method is an error.
func (p *Proxy) Bind(method string, fn Method) error {
	if method == "" {
		return fmt.Errorf("proxy %s: bind: empty method name", p.Name())
	}
	if fn == nil {
		return fmt.Errorf("proxy %s: bind %s: nil method", p.Name(), method)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.methods[method]; dup {
		return fmt.Errorf("proxy %s: bind %s: already bound", p.Name(), method)
	}
	p.methods[method] = fn
	return nil
}

// Methods returns the sorted names of the bound methods.
func (p *Proxy) Methods() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.methods))
	for m := range p.methods {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Invoke performs one guarded call: it builds the invocation record, runs
// pre-activation (blocking as the aspects dictate), executes the method
// body outside the admission lock, and runs post-activation. This is the
// paper's guarded method of Figure 10. The record is released for reuse
// once the call returns; a panicking body leaves it to the collector.
func (p *Proxy) Invoke(ctx context.Context, method string, args ...any) (any, error) {
	return p.InvokeWithPriority(ctx, 0, method, args...)
}

// InvokeWithPriority is Invoke with an explicit wait-queue priority for
// moderators using the priority wake policy.
func (p *Proxy) InvokeWithPriority(ctx context.Context, priority int, method string, args ...any) (any, error) {
	inv := aspect.NewInvocation(ctx, p.Name(), method, args)
	inv.Priority = priority
	result, err := p.Call(inv)
	inv.Release()
	return result, err
}

// Call performs one guarded call with a caller-constructed invocation,
// allowing priorities and attributes (credentials, tracing metadata) to be
// attached beforehand. The invocation must target this component. The
// caller owns it: Call never releases it.
func (p *Proxy) Call(inv *aspect.Invocation) (any, error) {
	p.mu.RLock()
	fn, ok := p.methods[inv.Method()]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("proxy %s: invoke %s: %w", p.Name(), inv.Method(), ErrNoSuchMethod)
	}
	adm, err := p.mod.Preactivation(inv)
	if err != nil {
		return nil, err
	}
	// Post-activation is deferred so that aspect state (reservations,
	// active counters) is restored even if the method body panics; the
	// panic then propagates to the caller.
	defer p.mod.Postactivation(inv, adm)
	result, err := fn(inv)
	inv.SetResult(result, err)
	return result, err
}
