// Package naming provides the location-transparency substrate of the
// framework (one of the interaction requirements of the paper's Section
// 2): a lease-based name registry mapping component names to network
// endpoints, usable in-process (Store) or over amrpc (Server / Client).
//
// Components register themselves with a time-to-live; clients look them up
// by name and dial the returned endpoint with the amrpc client. Expired
// leases vanish from lookups, so a crashed server stops being advertised
// without explicit deregistration.
package naming

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ErrNotFound is returned when no live registration exists for a name.
var ErrNotFound error = &codedError{"naming: not found", "not-found"}

// codedError is a sentinel that carries its own amrpc wire code: a refusal
// wrapping it crosses the wire under that code, and errors.Is matches the
// refusal the client receives against the sentinel again.
type codedError struct{ msg, code string }

func (e *codedError) Error() string { return e.msg }

// WireCode is the code amrpc sends a refusal wrapping e under.
func (e *codedError) WireCode() string { return e.code }

// DefaultTTL is used when a registration does not specify a lease.
const DefaultTTL = 30 * time.Second

// Entry is one live registration.
type Entry struct {
	Name    string    `json:"name"`
	Addr    string    `json:"addr"`
	Expires time.Time `json:"expires"`
}

// Store is the in-memory registry. It is safe for concurrent use. The zero
// value is NOT usable; construct with NewStore.
type Store struct {
	mu      sync.Mutex
	entries map[string]Entry
	leases  map[string]leaseRecord // domain ownership, see lease.go
	now     func() time.Time
}

// StoreOption configures NewStore.
type StoreOption func(*Store)

// WithClock overrides the lease clock (tests).
func WithClock(now func() time.Time) StoreOption {
	return func(s *Store) { s.now = now }
}

// NewStore creates an empty registry.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		entries: make(map[string]Entry, 8),
		leases:  make(map[string]leaseRecord, 8),
		now:     time.Now,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Register binds name to addr for ttl (DefaultTTL if zero). Re-registering
// renews the lease and may move the endpoint.
func (s *Store) Register(name, addr string, ttl time.Duration) error {
	if name == "" || addr == "" {
		return fmt.Errorf("naming: register %q -> %q: empty name or addr", name, addr)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[name] = Entry{Name: name, Addr: addr, Expires: s.now().Add(ttl)}
	return nil
}

// Lookup resolves a live registration.
func (s *Store) Lookup(name string) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[name]
	if !ok || s.now().After(e.Expires) {
		if ok {
			delete(s.entries, name) // lazy expiry
		}
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return e, nil
}

// Unregister removes a binding, reporting whether it existed (live or not).
func (s *Store) Unregister(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[name]
	delete(s.entries, name)
	return ok
}

// List returns all live registrations sorted by name, purging expired ones.
func (s *Store) List() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	out := make([]Entry, 0, len(s.entries))
	for name, e := range s.entries {
		if now.After(e.Expires) {
			delete(s.entries, name)
			continue
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of live registrations.
func (s *Store) Len() int { return len(s.List()) }
