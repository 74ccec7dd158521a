// Benchmarks, one family per experiment of EXPERIMENTS.md (E1-E11), and
// the only driver of those experiments: `go test -bench . -benchmem`
// regenerates every table's raw measurements. `make tier1` runs each body
// once (-benchtime 1x) so none of them can rot.
package repro_test

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
	"repro/internal/apps/timecard"
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/coord"
	"repro/internal/aspects/fault"
	"repro/internal/baseline/decorator"
	"repro/internal/baseline/tangled"
	"repro/internal/moderator"
	"repro/internal/proxy"
	"repro/internal/waitq"
)

func mustGuarded(b *testing.B, capacity int, opts ...moderator.Option) *ticket.Guarded {
	b.Helper()
	g, err := ticket.NewGuarded(ticket.GuardedConfig{
		Capacity:         capacity,
		ModeratorOptions: opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- E1: uncontended overhead per composition style ---

func BenchmarkE1OverheadDirect(b *testing.B) {
	s, err := ticket.NewServer(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Open(ticket.Ticket{ID: "t"}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Assign(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1OverheadFramework(b *testing.B) {
	g := mustGuarded(b, 4)
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1OverheadTangled(b *testing.B) {
	s, err := tangled.New(tangled.Config{Capacity: 4})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Open(ctx, "", ticket.Ticket{ID: "t"}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Assign(ctx, ""); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1OverheadDecorator(b *testing.B) {
	srv, err := ticket.NewServer(4)
	if err != nil {
		b.Fatal(err)
	}
	inner := proxy.New(moderator.New("dc"))
	if err := inner.Bind("open", func(inv *aspect.Invocation) (any, error) {
		id, _ := inv.ArgString(0)
		return nil, srv.Open(ticket.Ticket{ID: id})
	}); err != nil {
		b.Fatal(err)
	}
	if err := inner.Bind("assign", func(*aspect.Invocation) (any, error) {
		return srv.Assign()
	}); err != nil {
		b.Fatal(err)
	}
	chain, err := decorator.Chain(inner, decorator.MutexInterceptor())
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chain.Invoke(ctx, "open", "t"); err != nil {
			b.Fatal(err)
		}
		if _, err := chain.Invoke(ctx, "assign"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: throughput under contention (parallel producers/consumers) ---

func benchContention(b *testing.B, capacity int, framework bool) {
	ctx := context.Background()
	var open func(string) error
	var assign func() error
	if framework {
		g := mustGuarded(b, capacity)
		p := g.Proxy()
		open = func(id string) error {
			_, err := p.Invoke(ctx, ticket.MethodOpen, id, "s")
			return err
		}
		assign = func() error {
			_, err := p.Invoke(ctx, ticket.MethodAssign)
			return err
		}
	} else {
		s, err := tangled.New(tangled.Config{Capacity: capacity})
		if err != nil {
			b.Fatal(err)
		}
		open = func(id string) error { return s.Open(ctx, "", ticket.Ticket{ID: id}) }
		assign = func() error {
			_, err := s.Assign(ctx, "")
			return err
		}
	}
	// Each iteration is one open+assign pair performed by the same
	// goroutine; RunParallel provides the producer/consumer contention.
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := open("t"); err != nil {
				b.Error(err)
				return
			}
			if err := assign(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE2ContentionFramework(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) { benchContention(b, k, true) })
	}
}

func BenchmarkE2ContentionTangled(b *testing.B) {
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) { benchContention(b, k, false) })
	}
}

// --- E3: aspect chain length ---

func BenchmarkE3ChainLength(b *testing.B) {
	for _, l := range []int{0, 1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("aspects%d", l), func(b *testing.B) {
			mod := moderator.New("chain")
			for k := 0; k < l; k++ {
				kind := aspect.Kind(fmt.Sprintf("noop-%d", k))
				if err := mod.Register("m", kind, aspect.New("noop", kind, nil, nil)); err != nil {
					b.Fatal(err)
				}
			}
			p := proxy.New(mod)
			if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Invoke(ctx, "m"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: the authentication layer's cost vs tangled auth ---

func BenchmarkE4AuthLayerFramework(b *testing.B) {
	g := mustGuarded(b, 4)
	store := auth.NewTokenStore()
	tok := store.Issue("alice", "client")
	if err := g.EnableAuthentication(store); err != nil {
		b.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv := aspect.NewInvocation(ctx, p.Name(), ticket.MethodOpen, []any{"t", "s"})
		auth.WithToken(inv, tok)
		if _, err := p.Call(inv); err != nil {
			b.Fatal(err)
		}
		inv2 := aspect.NewInvocation(ctx, p.Name(), ticket.MethodAssign, nil)
		auth.WithToken(inv2, tok)
		if _, err := p.Call(inv2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4AuthLayerTangled(b *testing.B) {
	s, err := tangled.New(tangled.Config{Capacity: 4, Authenticate: true})
	if err != nil {
		b.Fatal(err)
	}
	s.IssueToken("tok", "alice")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Open(ctx, "tok", ticket.Ticket{ID: "t"}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Assign(ctx, "tok"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: wake policy under a capacity-1 buffer ---

func BenchmarkE5WaitPolicy(b *testing.B) {
	for _, pol := range []waitq.Policy{waitq.FIFO, waitq.LIFO, waitq.Priority} {
		b.Run(pol.String(), func(b *testing.B) {
			g := mustGuarded(b, 1,
				moderator.WithWakePolicy(pol), moderator.WithWakeMode(moderator.WakeSingle))
			p := g.Proxy()
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := p.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
						b.Error(err)
						return
					}
					if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// --- E6: priority classification cost ---

func BenchmarkE6Priority(b *testing.B) {
	g := mustGuarded(b, 1024,
		moderator.WithWakePolicy(waitq.Priority), moderator.WithWakeMode(moderator.WakeSingle))
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		prio := 0
		for pb.Next() {
			prio = (prio + 1) % 10
			if _, err := p.InvokeWithPriority(ctx, prio, ticket.MethodOpen, "t", "s"); err != nil {
				b.Error(err)
				return
			}
			if _, err := p.InvokeWithPriority(ctx, prio, ticket.MethodAssign); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- E7: local vs remote invocation ---

func BenchmarkE7RemoteLocal(b *testing.B) {
	g := mustGuarded(b, 4)
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7RemoteLoopback(b *testing.B) {
	g := mustGuarded(b, 4)
	srv := amrpc.NewServer()
	if err := srv.Register(g.Proxy()); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln)
	}()
	b.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	client, err := amrpc.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = client.Close() })
	stub := client.Component(ticket.ComponentName)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
			b.Fatal(err)
		}
		if _, err := stub.Invoke(ctx, ticket.MethodAssign); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: fault-tolerance aspects ---

func BenchmarkE8FaultBreakerHealthy(b *testing.B) {
	p := proxy.New(moderator.New("svc"))
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	cb, err := fault.NewCircuitBreaker(fault.CircuitBreakerConfig{Threshold: 5, Cooldown: time.Second})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Moderator().Register("m", aspect.KindFaultTolerance, cb.Aspect("cb")); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "m"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8FaultBreakerOpenShed(b *testing.B) {
	p := proxy.New(moderator.New("svc"))
	boom := errors.New("down")
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, boom }); err != nil {
		b.Fatal(err)
	}
	cb, err := fault.NewCircuitBreaker(fault.CircuitBreakerConfig{Threshold: 1, Cooldown: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Moderator().Register("m", aspect.KindFaultTolerance, cb.Aspect("cb")); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	_, _ = p.Invoke(ctx, "m") // trip it
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "m"); !errors.Is(err, fault.ErrCircuitOpen) {
			b.Fatalf("want open circuit, got %v", err)
		}
	}
}

func BenchmarkE8FaultRetryTransient(b *testing.B) {
	calls := 0
	p := proxy.New(moderator.New("svc"))
	if err := p.Bind("m", func(*aspect.Invocation) (any, error) {
		calls++
		if calls%2 == 0 { // every second raw call fails
			return nil, errors.New("transient")
		}
		return nil, nil
	}); err != nil {
		b.Fatal(err)
	}
	r, err := fault.Retry(p, fault.RetryPolicy{MaxAttempts: 3})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Invoke(ctx, "m"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: recomposition churn ---

func BenchmarkE9Churn(b *testing.B) {
	g := mustGuarded(b, 16)
	p := g.Proxy()
	mod := g.Moderator()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			layer := fmt.Sprintf("churn-%d", i)
			if err := mod.AddLayer(layer, moderator.Outermost); err != nil {
				return
			}
			_ = mod.RegisterIn(layer, ticket.MethodOpen, aspect.KindAudit,
				aspect.New("churn", aspect.KindAudit, nil, nil))
			_ = mod.RemoveLayer(layer)
		}
	}()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// --- E10: the same aspects reused across all three applications ---

func BenchmarkE10ReuseTicket(b *testing.B) {
	g := mustGuarded(b, 8)
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, ticket.MethodOpen, "t", "s"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Invoke(ctx, ticket.MethodAssign); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ReuseReservation(b *testing.B) {
	g, err := reservation.NewGuarded(reservation.GuardedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, reservation.MethodReserve, "R1C1", "alice"); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Invoke(ctx, reservation.MethodCancel, "R1C1", "alice"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ReuseAuction(b *testing.B) {
	g, err := auction.NewGuarded(auction.GuardedConfig{})
	if err != nil {
		b.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, auction.MethodList, "lot", 1.0); err != nil {
		b.Fatal(err)
	}
	bid := 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bid++
		if _, err := p.Invoke(ctx, auction.MethodBid, "lot", "bea", bid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10ReuseTimecard(b *testing.B) {
	store := auth.NewTokenStore()
	tok := store.Issue("alice", timecard.RoleEmployee)
	g, err := timecard.NewGuarded(timecard.GuardedConfig{Authenticator: store})
	if err != nil {
		b.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv := aspect.NewInvocation(ctx, p.Name(), timecard.MethodPunchIn, nil)
		auth.WithToken(inv, tok)
		if _, err := p.Call(inv); err != nil {
			b.Fatal(err)
		}
		inv2 := aspect.NewInvocation(ctx, p.Name(), timecard.MethodPunchOut, nil)
		auth.WithToken(inv2, tok)
		if _, err := p.Call(inv2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: coordination aspects (extension) ---

func BenchmarkE11BarrierCohorts(b *testing.B) {
	for _, parties := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parties%d", parties), func(b *testing.B) {
			bar, err := coord.NewBarrier(parties, "m")
			if err != nil {
				b.Fatal(err)
			}
			mod := moderator.New("comp")
			if err := mod.Register("m", aspect.KindSynchronization, bar.Aspect("barrier")); err != nil {
				b.Fatal(err)
			}
			p := proxy.New(mod)
			if err := p.Bind("m", func(*aspect.Invocation) (any, error) { return nil, nil }); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			b.ResetTimer()
			// Each iteration is one cohort: all parties cross once.
			for i := 0; i < b.N; i++ {
				wg.Add(parties)
				for w := 0; w < parties; w++ {
					go func() {
						defer wg.Done()
						if _, err := p.Invoke(ctx, "m"); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}

func BenchmarkE11RendezvousPairs(b *testing.B) {
	r, err := coord.NewRendezvous("send", "recv")
	if err != nil {
		b.Fatal(err)
	}
	mod := moderator.New("comp")
	if err := mod.Register("send", aspect.KindSynchronization, r.LeftAspect("l")); err != nil {
		b.Fatal(err)
	}
	if err := mod.Register("recv", aspect.KindSynchronization, r.RightAspect("r")); err != nil {
		b.Fatal(err)
	}
	p := proxy.New(mod)
	body := func(*aspect.Invocation) (any, error) { return nil, nil }
	if err := p.Bind("send", body); err != nil {
		b.Fatal(err)
	}
	if err := p.Bind("recv", body); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(ctx, "recv"); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(ctx, "send"); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}
