package auth

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/aspect"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

func TestPrincipalHasRole(t *testing.T) {
	p := &Principal{Name: "alice", Roles: []string{"agent", "admin"}}
	if !p.HasRole("agent") || !p.HasRole("admin") {
		t.Error("roles missing")
	}
	if p.HasRole("auditor") {
		t.Error("unexpected role")
	}
	var nilP *Principal
	if nilP.HasRole("agent") {
		t.Error("nil principal must have no roles")
	}
}

func TestTokenAttrsRoundTrip(t *testing.T) {
	i := inv("m")
	if _, ok := TokenOf(i); ok {
		t.Error("fresh invocation must carry no token")
	}
	WithToken(i, "tok-1")
	tok, ok := TokenOf(i)
	if !ok || tok != "tok-1" {
		t.Errorf("TokenOf = %q, %v", tok, ok)
	}
	if PrincipalOf(i) != nil {
		t.Error("fresh invocation must carry no principal")
	}
	p := &Principal{Name: "alice"}
	WithPrincipal(i, p)
	if PrincipalOf(i) != p {
		t.Error("principal round trip failed")
	}
}

func TestTokenStoreLifecycle(t *testing.T) {
	var s TokenStore // zero value usable
	tok := s.Issue("alice", "agent")
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	p, ok := s.Lookup(tok)
	if !ok || p.Name != "alice" || !p.HasRole("agent") {
		t.Fatalf("lookup = %+v, %v", p, ok)
	}
	if _, ok := s.Lookup("bogus"); ok {
		t.Error("bogus token must miss")
	}
	if !s.Revoke(tok) {
		t.Error("revoke must succeed")
	}
	if s.Revoke(tok) {
		t.Error("double revoke must fail")
	}
	if _, ok := s.Lookup(tok); ok {
		t.Error("revoked token must miss")
	}
}

func TestTokensUniqueProperty(t *testing.T) {
	f := func(n uint8) bool {
		var s TokenStore
		count := int(n%32) + 2
		seen := make(map[string]bool, count)
		for i := 0; i < count; i++ {
			tok := s.Issue("user")
			if seen[tok] {
				return false
			}
			seen[tok] = true
		}
		return s.Len() == count
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAuthenticatorFlow(t *testing.T) {
	store := NewTokenStore()
	tok := store.Issue("alice", "agent")
	a := Authenticator("auth", store)
	if a.Kind() != aspect.KindAuthentication {
		t.Errorf("kind = %q", a.Kind())
	}

	// Valid token: resume and attach principal.
	i := inv("open")
	WithToken(i, tok)
	if v := a.Precondition(i); v != aspect.Resume {
		t.Fatalf("valid token verdict = %v", v)
	}
	if p := PrincipalOf(i); p == nil || p.Name != "alice" {
		t.Fatalf("principal = %+v", p)
	}

	// Missing token: abort, ErrUnauthenticated.
	i2 := inv("open")
	if v := a.Precondition(i2); v != aspect.Abort {
		t.Fatalf("missing token verdict = %v", v)
	}
	if !errors.Is(i2.Err(), ErrUnauthenticated) {
		t.Errorf("err = %v", i2.Err())
	}

	// Unknown token: abort.
	i3 := inv("open")
	WithToken(i3, "forged")
	if v := a.Precondition(i3); v != aspect.Abort {
		t.Fatalf("forged token verdict = %v", v)
	}

	// Revoked token: abort.
	store.Revoke(tok)
	i4 := inv("open")
	WithToken(i4, tok)
	if v := a.Precondition(i4); v != aspect.Abort {
		t.Fatalf("revoked token verdict = %v", v)
	}
}

func TestACLAllows(t *testing.T) {
	acl := ACL{"open": {"client"}, "assign": {"agent", "admin"}}
	client := &Principal{Name: "c", Roles: []string{"client"}}
	agent := &Principal{Name: "a", Roles: []string{"agent"}}
	if !acl.Allows("open", client) || acl.Allows("assign", client) {
		t.Error("client permissions wrong")
	}
	if !acl.Allows("assign", agent) || acl.Allows("open", agent) {
		t.Error("agent permissions wrong")
	}
	if acl.Allows("open", nil) {
		t.Error("nil principal must be denied")
	}
	if acl.Allows("unknown", client) {
		t.Error("unlisted method must be denied")
	}
	var nilACL ACL
	if nilACL.Allows("open", client) {
		t.Error("nil ACL must deny everything")
	}
}

func TestAuthorizerFlow(t *testing.T) {
	acl := ACL{"assign": {"agent"}}
	a := Authorizer("authz", acl)
	if a.Kind() != aspect.KindAuthorization {
		t.Errorf("kind = %q", a.Kind())
	}

	// No principal: abort unauthenticated.
	i := inv("assign")
	if v := a.Precondition(i); v != aspect.Abort {
		t.Fatalf("no principal verdict = %v", v)
	}
	if !errors.Is(i.Err(), ErrUnauthenticated) {
		t.Errorf("err = %v", i.Err())
	}

	// Wrong role: abort permission denied.
	i2 := inv("assign")
	WithPrincipal(i2, &Principal{Name: "c", Roles: []string{"client"}})
	if v := a.Precondition(i2); v != aspect.Abort {
		t.Fatalf("wrong role verdict = %v", v)
	}
	if !errors.Is(i2.Err(), ErrPermissionDenied) {
		t.Errorf("err = %v", i2.Err())
	}

	// Right role: resume.
	i3 := inv("assign")
	WithPrincipal(i3, &Principal{Name: "a", Roles: []string{"agent"}})
	if v := a.Precondition(i3); v != aspect.Resume {
		t.Fatalf("right role verdict = %v", v)
	}
}

func TestTokenStoreConcurrent(t *testing.T) {
	var s TokenStore
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				tok := s.Issue("u", "r")
				if _, ok := s.Lookup(tok); !ok {
					t.Error("issued token must resolve")
					return
				}
				if !s.Revoke(tok) {
					t.Error("revoke must succeed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Errorf("len = %d, want 0", s.Len())
	}
}
