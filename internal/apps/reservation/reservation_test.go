package reservation

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/metrics"
)

func TestNewVenueValidation(t *testing.T) {
	if _, err := NewVenue(nil); err == nil {
		t.Error("empty venue must error")
	}
	if _, err := NewVenue([]string{""}); err == nil {
		t.Error("empty seat id must error")
	}
	if _, err := NewVenue([]string{"A", "A"}); err == nil {
		t.Error("duplicate seat must error")
	}
	if _, err := GridVenue(0, 5); err == nil {
		t.Error("zero rows must error")
	}
}

func TestVenueSequentialSemantics(t *testing.T) {
	v, err := NewVenue([]string{"A1", "A2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Reserve("A1", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := v.Reserve("A1", "bob"); !errors.Is(err, ErrSeatTaken) {
		t.Fatalf("double reserve: %v", err)
	}
	if err := v.Reserve("Z9", "bob"); !errors.Is(err, ErrNoSuchSeat) {
		t.Fatalf("ghost seat: %v", err)
	}
	holder, err := v.Holder("A1")
	if err != nil || holder != "alice" {
		t.Fatalf("holder = %q, %v", holder, err)
	}
	if err := v.Cancel("A1", "bob"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("cancel by non-holder: %v", err)
	}
	if err := v.Cancel("A2", "alice"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("cancel free seat: %v", err)
	}
	if err := v.Cancel("A1", "alice"); err != nil {
		t.Fatal(err)
	}
	if got := v.Available(); len(got) != 2 {
		t.Errorf("available = %v", got)
	}
	if v.Reservations() != 1 || v.Cancellations() != 1 {
		t.Errorf("counters = %d/%d", v.Reservations(), v.Cancellations())
	}
}

func TestGridVenueNaming(t *testing.T) {
	v, err := GridVenue(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Seats() != 6 {
		t.Fatalf("seats = %d", v.Seats())
	}
	if _, err := v.Holder("R2C3"); err != nil {
		t.Errorf("R2C3 must exist: %v", err)
	}
}

func TestGuardedBasicFlow(t *testing.T) {
	g, err := NewGuarded(GuardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, MethodReserve, "R1C1", "alice"); err != nil {
		t.Fatal(err)
	}
	holder, err := p.Invoke(ctx, MethodHolder, "R1C1")
	if err != nil || holder != "alice" {
		t.Fatalf("holder = %v, %v", holder, err)
	}
	avail, err := p.Invoke(ctx, MethodAvailable)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(avail.([]string)); got != 99 {
		t.Errorf("available = %d, want 99", got)
	}
	if _, err := p.Invoke(ctx, MethodCancel, "R1C1", "alice"); err != nil {
		t.Fatal(err)
	}
}

func TestGuardedConcurrentContention(t *testing.T) {
	// Many clients race for the same seats through the guarded proxy;
	// exactly one reservation per seat may succeed, and the RW invariants
	// must hold throughout.
	v, err := GridVenue(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuarded(GuardedConfig{Venue: v})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	const clients = 8
	var wg sync.WaitGroup
	wins := make(chan string, clients*16)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			me := fmt.Sprintf("client-%d", c)
			for r := 1; r <= 4; r++ {
				for s := 1; s <= 4; s++ {
					seat := fmt.Sprintf("R%dC%d", r, s)
					_, err := p.Invoke(context.Background(), MethodReserve, seat, me)
					switch {
					case err == nil:
						wins <- seat
					case errors.Is(err, ErrSeatTaken):
						// expected loser
					default:
						t.Errorf("reserve %s: %v", seat, err)
					}
					// Interleave reads.
					if _, err := p.Invoke(context.Background(), MethodHolder, seat); err != nil {
						t.Errorf("holder %s: %v", seat, err)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(wins)
	seen := make(map[string]bool, 16)
	for seat := range wins {
		if seen[seat] {
			t.Errorf("seat %s reserved twice", seat)
		}
		seen[seat] = true
	}
	if len(seen) != 16 {
		t.Errorf("reserved %d seats, want 16", len(seen))
	}
	if err := g.RWLock().CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := len(v.Available()); got != 0 {
		t.Errorf("available = %d, want 0", got)
	}
}

func TestGuardedWithSecurity(t *testing.T) {
	store := auth.NewTokenStore()
	clientTok := store.Issue("alice", "customer")
	auditorTok := store.Issue("eve", "auditor")
	acl := auth.ACL{
		MethodReserve:   {"customer"},
		MethodCancel:    {"customer"},
		MethodHolder:    {"customer", "auditor"},
		MethodAvailable: {"customer", "auditor"},
	}
	g, err := NewGuarded(GuardedConfig{Authenticator: store, ACL: acl})
	if err != nil {
		t.Fatal(err)
	}
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
	p := g.Proxy()
	ctx := context.Background()

	// Anonymous: unauthenticated.
	if _, err := p.Invoke(ctx, MethodReserve, "R1C1", "x"); !errors.Is(err, auth.ErrUnauthenticated) {
		t.Fatalf("anonymous: %v", err)
	}
	// Customer can reserve; the principal becomes the holder.
	inv := aspect.NewInvocation(ctx, p.Name(), MethodReserve, []any{"R1C1"})
	auth.WithToken(inv, clientTok)
	if _, err := p.Call(inv); err != nil {
		t.Fatalf("customer reserve: %v", err)
	}
	holder, err := g.Venue().Holder("R1C1")
	if err != nil || holder != "alice" {
		t.Fatalf("holder = %q, %v", holder, err)
	}
	// Auditor can query but not reserve.
	qInv := aspect.NewInvocation(ctx, p.Name(), MethodHolder, []any{"R1C1"})
	auth.WithToken(qInv, auditorTok)
	if _, err := p.Call(qInv); err != nil {
		t.Fatalf("auditor query: %v", err)
	}
	rInv := aspect.NewInvocation(ctx, p.Name(), MethodReserve, []any{"R2C2"})
	auth.WithToken(rInv, auditorTok)
	if _, err := p.Call(rInv); !errors.Is(err, auth.ErrPermissionDenied) {
		t.Fatalf("auditor reserve: %v", err)
	}
}

func TestGuardedMetricsLayer(t *testing.T) {
	rec := metrics.NewRecorder()
	g, err := NewGuarded(GuardedConfig{Metrics: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Proxy().Invoke(context.Background(), MethodAvailable); err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot()[ComponentName+"."+MethodAvailable].Count != 1 {
		t.Errorf("metrics = %v", rec.Keys())
	}
}
