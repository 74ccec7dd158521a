// Package auth provides the security aspects of the framework:
// authentication (the paper's Section 5.3 adaptability scenario, where an
// authentication concern is added to the running trouble-ticketing system
// without touching functional code) and role-based authorization.
//
// Credentials travel on the invocation as attributes: callers attach a
// token with WithToken, the Authenticator aspect resolves it against a
// TokenStore and attaches the resulting Principal, and downstream aspects
// (Authorizer, fair-share schedulers, audit trails) read it with
// PrincipalOf.
package auth

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/aspect"
)

// ErrUnauthenticated is recorded when no valid credential accompanies the
// invocation.
var ErrUnauthenticated = errors.New("auth: unauthenticated")

// ErrPermissionDenied is recorded when the authenticated principal lacks a
// required role.
var ErrPermissionDenied = errors.New("auth: permission denied")

// Principal is an authenticated caller identity.
type Principal struct {
	Name  string
	Roles []string
}

// HasRole reports whether the principal holds the given role.
func (p *Principal) HasRole(role string) bool {
	if p == nil {
		return false
	}
	for _, r := range p.Roles {
		if r == role {
			return true
		}
	}
	return false
}

type tokenKey struct{}
type principalKey struct{}

// WithToken attaches a bearer token to the invocation.
func WithToken(inv *aspect.Invocation, token string) {
	inv.SetAttr(tokenKey{}, token)
}

// TokenOf returns the invocation's bearer token, if any.
func TokenOf(inv *aspect.Invocation) (string, bool) {
	tok, ok := inv.Attr(tokenKey{}).(string)
	return tok, ok
}

// WithPrincipal attaches an authenticated principal to the invocation.
// The Authenticator aspect calls this; tests and trusted in-process callers
// may too.
func WithPrincipal(inv *aspect.Invocation, p *Principal) {
	inv.SetAttr(principalKey{}, p)
}

// PrincipalOf returns the invocation's authenticated principal, or nil.
func PrincipalOf(inv *aspect.Invocation) *Principal {
	p, _ := inv.Attr(principalKey{}).(*Principal)
	return p
}

// TokenStore maps bearer tokens to principals. It is safe for concurrent
// use; unlike guard state it is typically shared across components and
// mutated outside the admission lock. The zero value is ready to use.
type TokenStore struct {
	mu     sync.RWMutex
	byTok  map[string]*Principal
	nextID int
}

// NewTokenStore returns an empty store. Equivalent to new(TokenStore).
func NewTokenStore() *TokenStore { return new(TokenStore) }

// Issue creates a principal with the given name and roles and returns a
// fresh token for it.
func (s *TokenStore) Issue(name string, roles ...string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byTok == nil {
		s.byTok = make(map[string]*Principal, 8)
	}
	s.nextID++
	tok := fmt.Sprintf("tok-%s-%04d", name, s.nextID)
	s.byTok[tok] = &Principal{Name: name, Roles: roles}
	return tok
}

// Revoke invalidates a token, reporting whether it existed.
func (s *TokenStore) Revoke(token string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byTok[token]; !ok {
		return false
	}
	delete(s.byTok, token)
	return true
}

// Lookup resolves a token to its principal.
func (s *TokenStore) Lookup(token string) (*Principal, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.byTok[token]
	return p, ok
}

// Len returns the number of live tokens.
func (s *TokenStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byTok)
}

// Authenticator returns the authentication aspect: it resolves the
// invocation's token against the store, attaches the principal on success,
// and aborts with ErrUnauthenticated otherwise (the paper's
// OpenAuthenticationAspect / AssignAuthenticationAspect).
func Authenticator(name string, store *TokenStore) aspect.Aspect {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindAuthentication,
		// Resolves against the internally-locked TokenStore and writes
		// only invocation attributes; never blocks.
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			tok, ok := TokenOf(inv)
			if !ok {
				inv.SetErr(fmt.Errorf("auth: %s.%s: missing token: %w",
					inv.Component(), inv.Method(), ErrUnauthenticated))
				return aspect.Abort
			}
			p, ok := store.Lookup(tok)
			if !ok {
				inv.SetErr(fmt.Errorf("auth: %s.%s: unknown token: %w",
					inv.Component(), inv.Method(), ErrUnauthenticated))
				return aspect.Abort
			}
			WithPrincipal(inv, p)
			return aspect.Resume
		},
	}
}

// ACL maps each participating method to the roles allowed to invoke it.
// Methods absent from the map are denied to everyone; a nil ACL denies
// everything.
type ACL map[string][]string

// Allows reports whether a principal may invoke the method.
func (a ACL) Allows(method string, p *Principal) bool {
	if p == nil {
		return false
	}
	for _, role := range a[method] {
		if p.HasRole(role) {
			return true
		}
	}
	return false
}

// Authorizer returns the authorization aspect: it requires an authenticated
// principal (attached by an Authenticator earlier in the same invocation)
// holding one of the ACL's roles for the method, aborting with
// ErrPermissionDenied otherwise.
func Authorizer(name string, acl ACL) aspect.Aspect {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindAuthorization,
		// Stateless check over the immutable ACL; never blocks.
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			p := PrincipalOf(inv)
			if p == nil {
				inv.SetErr(fmt.Errorf("auth: %s.%s: no principal: %w",
					inv.Component(), inv.Method(), ErrUnauthenticated))
				return aspect.Abort
			}
			if !acl.Allows(inv.Method(), p) {
				inv.SetErr(fmt.Errorf("auth: %s.%s: principal %q: %w",
					inv.Component(), inv.Method(), p.Name, ErrPermissionDenied))
				return aspect.Abort
			}
			return aspect.Resume
		},
	}
}
