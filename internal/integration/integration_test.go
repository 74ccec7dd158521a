// Package integration_test exercises the framework across module
// boundaries: the full Figure-1 architecture, the initialization and
// invocation sequences of Figures 2-3, the adaptability scenario of
// Figures 13-18, aspect reuse across all three applications, and the
// distributed stack (naming + amrpc + guarded components).
package integration_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/apps/auction"
	"repro/internal/apps/reservation"
	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/aspects/audit"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/fault"
	"repro/internal/aspects/metrics"
	"repro/internal/moderator"
	"repro/internal/naming"
)

// TestFullStackTicketScenario wires the complete paper architecture —
// synchronization + audit + metrics aspects, then a runtime authentication
// layer — and runs the trouble-ticketing workload through it.
func TestFullStackTicketScenario(t *testing.T) {
	trail, err := audit.NewTrail(4096)
	if err != nil {
		t.Fatal(err)
	}
	rec := metrics.NewRecorder()
	g, err := ticket.NewGuarded(ticket.GuardedConfig{
		Capacity: 4,
		Audit:    trail,
		Metrics:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := auth.NewTokenStore()
	tok := store.Issue("alice", "client")
	if err := g.EnableAuthentication(store); err != nil {
		t.Fatal(err)
	}

	p := g.Proxy()
	const workers, per = 4, 20
	total := workers * per
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				inv := aspect.NewInvocation(context.Background(), p.Name(), ticket.MethodOpen,
					[]any{fmt.Sprintf("t-%d-%d", w, k), "summary"})
				auth.WithToken(inv, tok)
				if _, err := p.Call(inv); err != nil {
					t.Errorf("open: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				inv := aspect.NewInvocation(context.Background(), p.Name(), ticket.MethodAssign, nil)
				auth.WithToken(inv, tok)
				if _, err := p.Call(inv); err != nil {
					t.Errorf("assign: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if g.Server().Size() != 0 {
		t.Errorf("final buffer size = %d", g.Server().Size())
	}
	// Audit saw 2 events per successful invocation, attributed to alice.
	if got := trail.Seq(); got != uint64(2*2*total) {
		t.Errorf("audit events = %d, want %d", got, 2*2*total)
	}
	for _, e := range trail.Events() {
		if e.Principal != "alice" {
			t.Fatalf("unattributed audit event: %+v", e)
		}
	}
	// Metrics counted both methods.
	snap := rec.Snapshot()
	opens := snap[ticket.ComponentName+"."+ticket.MethodOpen].Count
	assigns := snap[ticket.ComponentName+"."+ticket.MethodAssign].Count
	if opens != uint64(total) || assigns != uint64(total) {
		t.Errorf("metrics counts = %d/%d, want %d each", opens, assigns, total)
	}
	// Moderator bookkeeping is balanced.
	stats := g.Moderator().Stats()
	if stats.Admissions != stats.Completions {
		t.Errorf("admissions %d != completions %d", stats.Admissions, stats.Completions)
	}
}

// TestAdaptabilityUnderLoad adds and removes the authentication layer while
// invocations are in flight — the paper's open-system claim, sharpened.
func TestAdaptabilityUnderLoad(t *testing.T) {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	store := auth.NewTokenStore()
	tok := store.Issue("alice")
	p := g.Proxy()

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := g.EnableAuthentication(store); err != nil {
				t.Errorf("enable: %v", err)
				return
			}
			if err := g.DisableAuthentication(); err != nil {
				t.Errorf("disable: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				// Every call carries a valid token, so it succeeds whether
				// or not the auth layer is present at admission time.
				inv := aspect.NewInvocation(context.Background(), p.Name(), ticket.MethodOpen,
					[]any{fmt.Sprintf("t-%d-%d", w, k), "s"})
				auth.WithToken(inv, tok)
				if _, err := p.Call(inv); err != nil {
					t.Errorf("open: %v", err)
					return
				}
				inv2 := aspect.NewInvocation(context.Background(), p.Name(), ticket.MethodAssign, nil)
				auth.WithToken(inv2, tok)
				if _, err := p.Call(inv2); err != nil {
					t.Errorf("assign: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if err := g.Buffer().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAspectReuseAcrossApplications registers the *same* aspect collaborator
// types (metrics recorder, token store) with all three applications — the
// reuse the paper claims separation buys.
func TestAspectReuseAcrossApplications(t *testing.T) {
	rec := metrics.NewRecorder()
	store := auth.NewTokenStore()
	tok := store.Issue("alice", "customer", "bidder", "seller", "client")

	tg, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4, Metrics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.EnableAuthentication(store); err != nil {
		t.Fatal(err)
	}
	rg, err := reservation.NewGuarded(reservation.GuardedConfig{
		Authenticator: store,
		Metrics:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ag, err := auction.NewGuarded(auction.GuardedConfig{
		Authenticator: store,
		Metrics:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	call := func(p interface {
		Name() string
		Call(*aspect.Invocation) (any, error)
	}, method string, args ...any) error {
		inv := aspect.NewInvocation(ctx, p.Name(), method, args)
		auth.WithToken(inv, tok)
		_, err := p.Call(inv)
		return err
	}
	if err := call(tg.Proxy(), ticket.MethodOpen, "t1", "s"); err != nil {
		t.Fatal(err)
	}
	if err := call(rg.Proxy(), reservation.MethodReserve, "R1C1"); err != nil {
		t.Fatal(err)
	}
	if err := call(ag.Proxy(), auction.MethodList, "vase", 10.0); err != nil {
		t.Fatal(err)
	}

	// One recorder saw all three components.
	keys := rec.Keys()
	wantPrefixes := []string{
		auction.ComponentName + ".",
		reservation.ComponentName + ".",
		ticket.ComponentName + ".",
	}
	for _, prefix := range wantPrefixes {
		found := false
		for _, k := range keys {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("recorder missing %q measurements: %v", prefix, keys)
		}
	}
}

// TestDistributedStackWithNaming runs the full distributed topology: a
// naming server, an amrpc server hosting the guarded ticket component that
// registers itself, and a client that discovers it by name.
func TestDistributedStackWithNaming(t *testing.T) {
	// Naming service.
	nsrv := naming.NewServer(nil)
	nln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := nsrv.Serve(nln); err != nil {
			t.Errorf("naming serve: %v", err)
		}
	}()
	defer func() {
		nsrv.Close()
		wg.Wait()
	}()

	// Guarded component behind amrpc.
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	rsrv := amrpc.NewServer()
	if err := rsrv.Register(g.Proxy()); err != nil {
		t.Fatal(err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := rsrv.Serve(rln); err != nil {
			t.Errorf("amrpc serve: %v", err)
		}
	}()
	defer rsrv.Close()

	// The server announces itself.
	announcer, err := naming.DialClient(nln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = announcer.Close() }()
	if err := announcer.Register(ticket.ComponentName, rln.Addr().String(), time.Minute); err != nil {
		t.Fatal(err)
	}

	// The client discovers and invokes.
	resolver, err := naming.DialClient(nln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resolver.Close() }()
	entry, err := resolver.Lookup(ticket.ComponentName)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := amrpc.Dial(entry.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rc.Close() }()
	stub := rc.Component(ticket.ComponentName)
	if _, err := stub.Invoke(context.Background(), ticket.MethodOpen, "t1", "remote"); err != nil {
		t.Fatal(err)
	}
	res, err := stub.Invoke(context.Background(), ticket.MethodAssign)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.(map[string]any); m["id"] != "t1" {
		t.Errorf("remote assign = %v", res)
	}
}

// TestFaultToleranceComposition composes the fault-tolerance concern with
// the ticket's synchronization: a circuit breaker in an outermost layer
// over the bounded-buffer guard on open. Failing calls trip the breaker;
// while it is open, calls are shed before the synchronization layer is
// evaluated, so they never reach the body and take no buffer capacity;
// the probe after the cooldown closes it. The guard state and the
// moderator's ledger stay consistent throughout.
func TestFaultToleranceComposition(t *testing.T) {
	now := time.Unix(3000, 0)
	cb, err := fault.NewCircuitBreaker(fault.CircuitBreakerConfig{
		Threshold: 2,
		Cooldown:  time.Second,
		Now:       func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	mod := g.Moderator()
	if err := mod.AddLayer("fault", moderator.Outermost); err != nil {
		t.Fatal(err)
	}
	if err := mod.RegisterIn("fault", ticket.MethodOpen, aspect.KindFaultTolerance, cb.Aspect("breaker")); err != nil {
		t.Fatal(err)
	}
	p, ctx := g.Proxy(), context.Background()
	consistent := func(step string) {
		t.Helper()
		if err := g.Buffer().CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if st := mod.Stats(); st.Admissions != st.Completions {
			t.Fatalf("%s: admissions=%d completions=%d", step, st.Admissions, st.Completions)
		}
	}

	// Transient failures: the body refuses a summary that is not a string,
	// after the guard admitted the call.
	for k := 0; k < 2; k++ {
		_, err := p.Invoke(ctx, ticket.MethodOpen, fmt.Sprintf("bad-%d", k), 42)
		if err == nil || errors.Is(err, fault.ErrCircuitOpen) {
			t.Fatalf("failing open %d: err = %v, want a body failure", k, err)
		}
		consistent("failing open")
	}
	if cb.State() != "open" {
		t.Fatalf("breaker after 2 failures: %s, want open", cb.State())
	}

	// Open: more calls than the buffer holds are shed, none reaching the
	// body or the buffer.
	for k := 0; k < 3; k++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, fmt.Sprintf("shed-%d", k), "s"); !errors.Is(err, fault.ErrCircuitOpen) {
			t.Fatalf("open %d while the breaker is open: err = %v, want ErrCircuitOpen", k, err)
		}
		consistent("shed open")
	}
	if n := g.Server().Opened(); n != 0 {
		t.Fatalf("%d shed calls reached the body", n)
	}
	if n := g.Buffer().Count(); n != 0 {
		t.Fatalf("shed calls left %d items in the buffer", n)
	}

	// After the cooldown, the probe succeeds and closes the breaker; the
	// buffer then takes its full capacity.
	now = now.Add(2 * time.Second)
	for k := 0; k < 2; k++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, fmt.Sprintf("t%d", k), "s"); err != nil {
			t.Fatalf("open %d after the cooldown: %v", k, err)
		}
		if cb.State() != "closed" {
			t.Fatalf("breaker after a good probe: %s, want closed", cb.State())
		}
		consistent("open after cooldown")
	}
	if n := g.Buffer().Count(); n != 2 {
		t.Fatalf("buffer holds %d tickets, want its capacity 2", n)
	}
	if n := mod.Stats().Admissions; n != 4 {
		t.Fatalf("admissions = %d, want 4: the two failures and the two successes, no shed call", n)
	}
}
