package naming

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/proxy"
)

// componentName is the amrpc component a Server hosts its Store under.
const componentName = "naming"

// operands is the one argument of every naming call: the operation's
// operands as one JSON object, the ones it does not take left out. Terms,
// sequence numbers and TTLs travel as integers and are decoded as such, so
// none takes a float64 detour.
type operands struct {
	Name   string        `json:"name,omitempty"` // entry name or lease domain
	Addr   string        `json:"addr,omitempty"`
	Holder string        `json:"holder,omitempty"`
	Term   uint64        `json:"term,omitempty"`
	Seq    uint64        `json:"seq,omitempty"` // snapshot-barrier sequence
	TTL    time.Duration `json:"ttl,omitempty"`
}

// operations maps each method of the naming component to the Store
// operation it runs; the value returned is the call's result.
var operations = map[string]func(s *Store, o *operands) (any, error){
	"register": func(s *Store, o *operands) (any, error) {
		return nil, s.Register(o.Name, o.Addr, o.TTL)
	},
	"lookup":     func(s *Store, o *operands) (any, error) { return s.Lookup(o.Name) },
	"unregister": func(s *Store, o *operands) (any, error) { return s.Unregister(o.Name), nil },
	"list":       func(s *Store, o *operands) (any, error) { return s.List(), nil },
	"acquire-lease": func(s *Store, o *operands) (any, error) {
		return s.AcquireLease(o.Name, o.Holder, o.TTL)
	},
	"renew-lease": func(s *Store, o *operands) (any, error) {
		return s.RenewLease(o.Name, o.Holder, o.Term, o.TTL)
	},
	"release-lease": func(s *Store, o *operands) (any, error) {
		return s.ReleaseLease(o.Name, o.Holder, o.Term), nil
	},
	"release-lease-barrier": func(s *Store, o *operands) (any, error) {
		return nil, s.ReleaseLeaseWithBarrier(o.Name, o.Holder, o.Term, o.Seq)
	},
	"lookup-lease": func(s *Store, o *operands) (any, error) { return s.LookupLease(o.Name) },
	"list-leases":  func(s *Store, o *operands) (any, error) { return s.Leases(), nil },
}

// service is a Store as an amrpc component. The server hands it every
// call in wire form; a refusal goes out under the wire code its sentinel
// carries.
type service struct{ store *Store }

// Name implements amrpc.Component.
func (service) Name() string { return componentName }

// Call implements amrpc.Component. The server reaches the component
// through CallRaw only.
func (service) Call(inv *aspect.Invocation) (any, error) {
	return nil, fmt.Errorf("naming: %s is served in wire form only", inv.Method())
}

// CallRaw implements amrpc.RawComponent.
func (s service) CallRaw(inv *aspect.Invocation, call amrpc.RawCall, dst []byte) ([]byte, error) {
	op, ok := operations[inv.Method()]
	if !ok {
		return dst, fmt.Errorf("%w: naming.%s", proxy.ErrNoSuchMethod, inv.Method())
	}
	if len(call.Args) != 1 {
		return dst, fmt.Errorf("%w: naming.%s takes 1 argument, got %d", amrpc.ErrBadRequest, inv.Method(), len(call.Args))
	}
	var o operands
	if err := json.Unmarshal(call.Args[0], &o); err != nil {
		return dst, fmt.Errorf("%w: naming.%s: %w", amrpc.ErrBadRequest, inv.Method(), err)
	}
	v, err := op(s.store, &o)
	if err != nil {
		return dst, err
	}
	return amrpc.AppendValue(dst, v)
}

// Server exposes a Store over TCP: an amrpc server hosting the one
// component "naming".
type Server struct {
	rpc   *amrpc.Server
	store *Store
}

// NewServer wraps a store (a fresh one if nil).
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore()
	}
	rpc := amrpc.NewServer()
	_ = rpc.RegisterComponent(service{store}) // the only component of a fresh server
	return &Server{rpc: rpc, store: store}
}

// Store returns the underlying registry.
func (s *Server) Store() *Store { return s.store }

// Serve accepts connections on ln until Close. It blocks; run it on a
// goroutine you own.
func (s *Server) Serve(ln net.Listener) error { return s.rpc.Serve(ln) }

// Close stops the server and drains its handlers.
func (s *Server) Close() { s.rpc.Close() }

// Client talks to a naming server over one amrpc connection, which it
// re-dials on the next call once the connection breaks. Safe for
// concurrent use.
type Client struct {
	rpc  *amrpc.Client
	stub *amrpc.Stub
}

// DialClient connects to a naming server.
func DialClient(addr string) (*Client, error) {
	rpc, err := amrpc.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("naming: %w", err)
	}
	return &Client{rpc: rpc, stub: rpc.Component(componentName)}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// call runs method on the server with the operands o and decodes its
// result into out, or drops it when out is nil.
func (c *Client) call(method string, o operands, out any) error {
	arg, _ := json.Marshal(o) // a struct of strings and integers always encodes
	res, err := c.stub.InvokeRaw(context.Background(), method, []json.RawMessage{arg}, nil)
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(res, out)
}

// Register binds name to addr with the given lease.
func (c *Client) Register(name, addr string, ttl time.Duration) error {
	return c.call("register", operands{Name: name, Addr: addr, TTL: ttl}, nil)
}

// Lookup resolves a name to its registered endpoint.
func (c *Client) Lookup(name string) (e Entry, err error) {
	err = c.call("lookup", operands{Name: name}, &e)
	return e, err
}

// AcquireLease grants (or extends, for the live holder) the domain lease.
func (c *Client) AcquireLease(domain, holder string, ttl time.Duration) (l DomainLease, err error) {
	err = c.call("acquire-lease", operands{Name: domain, Holder: holder, TTL: ttl}, &l)
	return l, err
}

// RenewLease extends the lease for the exact live (holder, term) pair;
// anything else — including renew-after-expiry — fails with ErrStaleTerm.
func (c *Client) RenewLease(domain, holder string, term uint64, ttl time.Duration) (l DomainLease, err error) {
	err = c.call("renew-lease", operands{Name: domain, Holder: holder, Term: term, TTL: ttl}, &l)
	return l, err
}

// ReleaseLease gives up a live lease, reporting whether one was released.
func (c *Client) ReleaseLease(domain, holder string, term uint64) (released bool, err error) {
	err = c.call("release-lease", operands{Name: domain, Holder: holder, Term: term}, &released)
	return released, err
}

// ReleaseLeaseWithBarrier gives up a live lease leaving a snapshot
// barrier at seq for the next grant; a stale (holder, term) pair is
// refused with ErrStaleTerm.
func (c *Client) ReleaseLeaseWithBarrier(domain, holder string, term, seq uint64) error {
	return c.call("release-lease-barrier", operands{Name: domain, Holder: holder, Term: term, Seq: seq}, nil)
}

// LookupLease returns the live lease on domain, or ErrNotFound.
func (c *Client) LookupLease(domain string) (l DomainLease, err error) {
	err = c.call("lookup-lease", operands{Name: domain}, &l)
	return l, err
}

// ListLeases returns all live domain leases.
func (c *Client) ListLeases() (leases []DomainLease, err error) {
	err = c.call("list-leases", operands{}, &leases)
	return leases, err
}

// Unregister removes a binding, reporting whether it existed.
func (c *Client) Unregister(name string) (existed bool, err error) {
	err = c.call("unregister", operands{Name: name}, &existed)
	return existed, err
}

// List returns all live registrations.
func (c *Client) List() (entries []Entry, err error) {
	err = c.call("list", operands{}, &entries)
	return entries, err
}
