package ticket_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
)

// TestRecycledInvocationCarriesNothing runs, over one guarded ticket proxy,
// a call that leaves state on its invocation record and then a call that
// must not see it. Proxy.Invoke releases its record for reuse once the
// call returns, so the second call may well run on the first one's record.
func TestRecycledInvocationCarriesNothing(t *testing.T) {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	open := []any{"TT-1", "recycled"}

	// The probe is a second guard on open: it notes the priority each call
	// carries and keeps the record itself, which no real aspect may do, so
	// the test can look at a record after its release.
	var (
		seenPriority int
		kept         *aspect.Invocation
	)
	probe := &aspect.Func{
		AspectName:      "probe",
		AspectKind:      aspect.KindScheduling,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			seenPriority = inv.Priority
			kept = inv
			return aspect.Resume
		},
	}
	if err := g.Moderator().Register(ticket.MethodOpen, aspect.KindScheduling, probe); err != nil {
		t.Fatal(err)
	}
	assign := func() {
		t.Helper()
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("priority", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			if _, err := p.InvokeWithPriority(ctx, 5, ticket.MethodOpen, open...); err != nil {
				t.Fatal(err)
			}
			assign()
			if _, err := p.Invoke(ctx, ticket.MethodOpen, open...); err != nil {
				t.Fatal(err)
			}
			assign()
			if seenPriority != 0 {
				t.Fatalf("round %d: Invoke after InvokeWithPriority saw priority %d", i, seenPriority)
			}
		}
	})

	t.Run("released record", func(t *testing.T) {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, open...); err != nil {
			t.Fatal(err)
		}
		if kept.Context() != nil || kept.Args() != nil || kept.Method() != "" {
			t.Fatalf("released record keeps ctx %v, args %v, method %q", kept.Context(), kept.Args(), kept.Method())
		}
		assign()
	})

	t.Run("token", func(t *testing.T) {
		store := auth.NewTokenStore()
		tok := store.Issue("alice", "client")
		if err := g.EnableAuthentication(store); err != nil {
			t.Fatal(err)
		}
		call := func(method string, args ...any) error {
			inv := aspect.NewInvocation(ctx, p.Name(), method, args)
			auth.WithToken(inv, tok)
			_, err := p.Call(inv)
			inv.Release()
			return err
		}
		for i := 0; i < 200; i++ {
			if err := call(ticket.MethodOpen, open...); err != nil {
				t.Fatalf("round %d: authenticated open: %v", i, err)
			}
			// Fatal before draining: an assign wrongly admitted here has
			// emptied the buffer, and the authenticated one would park.
			if _, err := p.Invoke(ctx, ticket.MethodAssign); !errors.Is(err, auth.ErrUnauthenticated) {
				t.Fatalf("round %d: tokenless assign after a released token-bearing record: %v", i, err)
			}
			if err := call(ticket.MethodAssign); err != nil {
				t.Fatalf("round %d: authenticated assign: %v", i, err)
			}
		}
	})
}

// TestInvokePairAllocations pins one guarded open+assign pair through
// Proxy.Invoke, the inproc_fast operation, at one allocation: the Ticket
// that assign returns, boxed into its result. Both invocation records are
// recycled (aspect.Invocation.Release); a record built per call comes back
// as two more, a timestamp or an eager shared id on it as time, not
// allocations (EXPERIMENTS.md E27).
func TestInvokePairAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	open := []any{"TT-1042", "printer on fire"}
	pair := func() {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, open...); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		pair()
	}
	n := testing.AllocsPerRun(1000, pair)
	t.Logf("%.0f allocs per open+assign pair", n)
	if n > 1 {
		t.Errorf("open+assign pair: %.0f allocs, want <= 1", n)
	}
}
