package timecard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
)

// stepClock advances one minute per call.
func stepClock() func() time.Time {
	t0 := time.Date(2001, 4, 16, 9, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func TestLedgerPunchLifecycle(t *testing.T) {
	l := NewLedger(WithClock(stepClock()))
	if err := l.PunchIn("alice"); err != nil {
		t.Fatal(err)
	}
	if err := l.PunchIn("alice"); !errors.Is(err, ErrAlreadyIn) {
		t.Fatalf("double punch-in: %v", err)
	}
	session, err := l.PunchOut("alice")
	if err != nil {
		t.Fatal(err)
	}
	if session != time.Minute {
		t.Errorf("session = %v, want 1m", session)
	}
	if _, err := l.PunchOut("alice"); !errors.Is(err, ErrNotIn) {
		t.Fatalf("double punch-out: %v", err)
	}
	card, ok := l.CardOf("alice")
	if !ok || card.Sessions != 1 || card.Worked != time.Minute {
		t.Errorf("card = %+v", card)
	}
}

func TestLedgerSubmitAndDecide(t *testing.T) {
	l := NewLedger(WithClock(stepClock()))
	if _, err := l.Submit("alice"); !errors.Is(err, ErrNothingToSubmit) {
		t.Fatalf("empty submit: %v", err)
	}
	if err := l.PunchIn("alice"); err != nil {
		t.Fatal(err)
	}
	// Submit with an open session closes it implicitly.
	card, err := l.Submit("alice")
	if err != nil {
		t.Fatal(err)
	}
	if card.State != StateSubmitted || card.Sessions != 1 {
		t.Errorf("submitted card = %+v", card)
	}
	// Punching while submitted is rejected.
	if err := l.PunchIn("alice"); !errors.Is(err, ErrNotSubmitted) {
		t.Fatalf("punch-in while submitted: %v", err)
	}
	if got := l.Pending(); len(got) != 1 || got[0] != "alice" {
		t.Errorf("pending = %v", got)
	}
	decided, err := l.Decide("alice", true)
	if err != nil || decided.State != StateApproved {
		t.Fatalf("decide = %+v, %v", decided, err)
	}
	if _, err := l.Decide("alice", true); !errors.Is(err, ErrNotSubmitted) {
		t.Fatalf("double decide: %v", err)
	}
	// After approval a fresh card opens on the next punch.
	if err := l.PunchIn("alice"); err != nil {
		t.Fatalf("punch-in after approval: %v", err)
	}
	card, _ = l.CardOf("alice")
	if card.Sessions != 0 || card.State != StateOpen {
		t.Errorf("fresh card = %+v", card)
	}
}

func TestLedgerReject(t *testing.T) {
	l := NewLedger(WithClock(stepClock()))
	if err := l.PunchIn("bob"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Submit("bob"); err != nil {
		t.Fatal(err)
	}
	card, err := l.Decide("bob", false)
	if err != nil || card.State != StateRejected {
		t.Fatalf("reject = %+v, %v", card, err)
	}
}

func TestGuardedRequiresAuthenticator(t *testing.T) {
	if _, err := NewGuarded(GuardedConfig{}); err == nil {
		t.Fatal("nil authenticator must error")
	}
}

// newGuarded builds the service with one employee and one manager token.
func newGuarded(t *testing.T) (*Guarded, string, string) {
	t.Helper()
	store := auth.NewTokenStore()
	empTok := store.Issue("alice", RoleEmployee)
	mgrTok := store.Issue("mina", RoleManager)
	g, err := NewGuarded(GuardedConfig{
		Authenticator: store,
		Ledger:        NewLedger(WithClock(stepClock())),
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, empTok, mgrTok
}

func call(t *testing.T, g *Guarded, token, method string, args ...any) (any, error) {
	t.Helper()
	inv := aspect.NewInvocation(context.Background(), g.Proxy().Name(), method, args)
	auth.WithToken(inv, token)
	return g.Proxy().Call(inv)
}

func TestGuardedEndToEnd(t *testing.T) {
	g, empTok, mgrTok := newGuarded(t)
	// Authentication evaluates before authorization, on every method.
	for _, meth := range g.Proxy().Methods() {
		authn := false
		for i, a := range g.Moderator().Aspects(meth) {
			switch a.Kind() {
			case aspect.KindAuthentication:
				authn = true
			case aspect.KindAuthorization:
				if !authn {
					t.Errorf("%s: authorization (at %d) evaluates before authentication", meth, i)
				}
			}
		}
	}

	// Anonymous calls never reach the ledger.
	if _, err := g.Proxy().Invoke(context.Background(), MethodPunchIn); !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("anonymous: %v", err)
	}
	// Employee workflow: punch in, out, submit.
	if _, err := call(t, g, empTok, MethodPunchIn); err != nil {
		t.Fatal(err)
	}
	session, err := call(t, g, empTok, MethodPunchOut)
	if err != nil {
		t.Fatal(err)
	}
	if session.(time.Duration) != time.Minute {
		t.Errorf("session = %v", session)
	}
	if _, err := call(t, g, empTok, MethodSubmit); err != nil {
		t.Fatal(err)
	}
	// The employee cannot approve their own card.
	if _, err := call(t, g, empTok, MethodDecide, "alice", true); !errors.Is(err, auth.ErrPermissionDenied) {
		t.Fatalf("employee decide: %v", err)
	}
	// The manager lists pending and approves.
	pending, err := call(t, g, mgrTok, MethodPending)
	if err != nil {
		t.Fatal(err)
	}
	if got := pending.([]string); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("pending = %v", got)
	}
	card, err := call(t, g, mgrTok, MethodDecide, "alice", true)
	if err != nil {
		t.Fatal(err)
	}
	if card.(Card).State != StateApproved {
		t.Errorf("card = %+v", card)
	}
	// The manager cannot punch (not an employee).
	if _, err := call(t, g, mgrTok, MethodPunchIn); !errors.Is(err, auth.ErrPermissionDenied) {
		t.Fatalf("manager punch: %v", err)
	}

	// Every operation — including the denied ones — is on the audit
	// trail, attributed to its principal.
	events := g.Audit().Events()
	if len(events) == 0 {
		t.Fatal("no audit events")
	}
	for _, e := range events {
		if e.Principal == "" {
			t.Fatalf("unattributed audit event: %+v", e)
		}
	}
}

func TestGuardedConcurrentEmployees(t *testing.T) {
	store := auth.NewTokenStore()
	const employees, sessions = 8, 5
	tokens := make([]string, employees)
	for i := range tokens {
		tokens[i] = store.Issue(fmt.Sprintf("emp-%d", i), RoleEmployee)
	}
	mgrTok := store.Issue("mina", RoleManager)
	g, err := NewGuarded(GuardedConfig{Authenticator: store})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range tokens {
		wg.Add(1)
		go func(tok string) {
			defer wg.Done()
			for k := 0; k < sessions; k++ {
				if _, err := call(t, g, tok, MethodPunchIn); err != nil {
					t.Errorf("punch-in: %v", err)
					return
				}
				if _, err := call(t, g, tok, MethodPunchOut); err != nil {
					t.Errorf("punch-out: %v", err)
					return
				}
			}
			if _, err := call(t, g, tok, MethodSubmit); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(tokens[i])
	}
	wg.Wait()

	pending, err := call(t, g, mgrTok, MethodPending)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pending.([]string)); got != employees {
		t.Fatalf("pending = %d, want %d", got, employees)
	}
	for _, name := range pending.([]string) {
		card, err := call(t, g, mgrTok, MethodDecide, name, true)
		if err != nil {
			t.Fatal(err)
		}
		if c := card.(Card); c.Sessions != sessions {
			t.Errorf("%s sessions = %d, want %d", name, c.Sessions, sessions)
		}
	}
	stats := g.Moderator().Stats()
	if stats.Admissions != stats.Completions {
		t.Errorf("unbalanced moderator: %+v", stats)
	}
}
