package coord

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

func TestNewBarrierValidation(t *testing.T) {
	if _, err := NewBarrier(1); err == nil {
		t.Error("parties 1 must error")
	}
	if _, err := NewBarrier(0); err == nil {
		t.Error("parties 0 must error")
	}
}

func TestNewRendezvousValidation(t *testing.T) {
	if _, err := NewRendezvous("", "b"); err == nil {
		t.Error("empty left must error")
	}
	if _, err := NewRendezvous("a", ""); err == nil {
		t.Error("empty right must error")
	}
	if _, err := NewRendezvous("a", "a"); err == nil {
		t.Error("identical methods must error")
	}
}

// runBarrierParty performs one guarded call through the moderator and
// reports completion on the returned channel.
func party(mod *moderator.Moderator, method string) <-chan error {
	done := make(chan error, 1)
	go func() {
		i := aspect.NewInvocation(context.Background(), "comp", method, nil)
		adm, err := mod.Preactivation(i)
		if err == nil {
			mod.Postactivation(i, adm)
		}
		done <- err
	}()
	return done
}

func waitWaiting(t *testing.T, mod *moderator.Moderator, method string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mod.Waiting(method) != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiting(%s) never reached %d (at %d)", method, n, mod.Waiting(method))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBarrierReleasesCohorts(t *testing.T) {
	const parties = 3
	b, err := NewBarrier(parties, "m")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp")
	if err := mod.Register("m", aspect.KindSynchronization, b.Aspect("barrier")); err != nil {
		t.Fatal(err)
	}

	for cohort := 0; cohort < 3; cohort++ {
		// First N-1 parties park.
		var dones []<-chan error
		for k := 0; k < parties-1; k++ {
			dones = append(dones, party(mod, "m"))
			waitWaiting(t, mod, "m", k+1)
		}
		select {
		case err := <-dones[0]:
			t.Fatalf("party passed an incomplete barrier: %v", err)
		default:
		}
		// The Nth party completes the cohort; everyone passes.
		dones = append(dones, party(mod, "m"))
		for i, d := range dones {
			select {
			case err := <-d:
				if err != nil {
					t.Fatalf("cohort %d party %d: %v", cohort, i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("cohort %d party %d never released", cohort, i)
			}
		}
		if got := b.Generation(); got != uint64(cohort+1) {
			t.Fatalf("generation = %d, want %d", got, cohort+1)
		}
	}
}

func TestBarrierAcrossMethods(t *testing.T) {
	// Parties arrive via two different participating methods.
	b, err := NewBarrier(2, "put", "get")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp")
	a := b.Aspect("barrier")
	if err := mod.Register("put", aspect.KindSynchronization, a); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("get", aspect.KindSynchronization, a); err != nil {
		t.Fatal(err)
	}
	d1 := party(mod, "put")
	waitWaiting(t, mod, "put", 1)
	d2 := party(mod, "get")
	for i, d := range []<-chan error{d1, d2} {
		select {
		case err := <-d:
			if err != nil {
				t.Fatalf("party %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("party %d never released", i)
		}
	}
}

func TestBarrierAbandonRetractsArrival(t *testing.T) {
	b, err := NewBarrier(2, "m")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp")
	if err := mod.Register("m", aspect.KindSynchronization, b.Aspect("barrier")); err != nil {
		t.Fatal(err)
	}

	// Party 1 arrives and then abandons.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, perr := mod.Preactivation(aspect.NewInvocation(ctx, "comp", "m", nil))
		done <- perr
	}()
	waitWaiting(t, mod, "m", 1)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled party must fail")
	}

	// The arrival must have been retracted: two fresh parties are needed.
	d1 := party(mod, "m")
	waitWaiting(t, mod, "m", 1)
	select {
	case err := <-d1:
		t.Fatalf("single party passed after abandoned arrival: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	d2 := party(mod, "m")
	for i, d := range []<-chan error{d1, d2} {
		select {
		case err := <-d:
			if err != nil {
				t.Fatalf("party %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("party %d never released", i)
		}
	}
}

func TestBarrierManyCohortsConcurrent(t *testing.T) {
	const parties, cohorts = 4, 10
	b, err := NewBarrier(parties, "m")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp")
	if err := mod.Register("m", aspect.KindSynchronization, b.Aspect("barrier")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, parties*cohorts)
	for k := 0; k < parties*cohorts; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := aspect.NewInvocation(context.Background(), "comp", "m", nil)
			adm, err := mod.Preactivation(i)
			if err == nil {
				mod.Postactivation(i, adm)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("party: %v", err)
		}
	}
	if got := b.Generation(); got != cohorts {
		t.Errorf("generations = %d, want %d", got, cohorts)
	}
	if b.Arrived() != 0 {
		t.Errorf("residual arrivals = %d", b.Arrived())
	}
}

func newRendezvousModerator(t *testing.T) (*moderator.Moderator, *Rendezvous) {
	t.Helper()
	r, err := NewRendezvous("send", "recv")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp")
	if err := mod.Register("send", aspect.KindSynchronization, r.LeftAspect("rdv-send")); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("recv", aspect.KindSynchronization, r.RightAspect("rdv-recv")); err != nil {
		t.Fatal(err)
	}
	return mod, r
}

func TestRendezvousPairsCallers(t *testing.T) {
	mod, _ := newRendezvousModerator(t)
	// A sender parks alone.
	d1 := party(mod, "send")
	waitWaiting(t, mod, "send", 1)
	select {
	case err := <-d1:
		t.Fatalf("sender proceeded without a receiver: %v", err)
	default:
	}
	// A receiver arrives: both proceed.
	d2 := party(mod, "recv")
	for i, d := range []<-chan error{d1, d2} {
		select {
		case err := <-d:
			if err != nil {
				t.Fatalf("side %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("side %d never proceeded", i)
		}
	}
}

func TestRendezvousManyPairsConcurrent(t *testing.T) {
	mod, r := newRendezvousModerator(t)
	const pairs = 32
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	run := func(method string) {
		defer wg.Done()
		i := aspect.NewInvocation(context.Background(), "comp", method, nil)
		adm, err := mod.Preactivation(i)
		if err == nil {
			mod.Postactivation(i, adm)
		}
		errs <- err
	}
	for k := 0; k < pairs; k++ {
		wg.Add(2)
		go run("send")
		go run("recv")
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("caller: %v", err)
		}
	}
	l, rr := r.Waiting()
	if l != 0 || rr != 0 {
		t.Errorf("residual waiters: %d/%d", l, rr)
	}
}

func TestRendezvousAbandonReleasesSlot(t *testing.T) {
	mod, r := newRendezvousModerator(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, perr := mod.Preactivation(aspect.NewInvocation(ctx, "comp", "send", nil))
		done <- perr
	}()
	waitWaiting(t, mod, "send", 1)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled sender must fail")
	}
	l, _ := r.Waiting()
	if l != 0 {
		t.Fatalf("abandoned sender still counted: %d", l)
	}
	// A fresh receiver must park (nobody is actually waiting), then a
	// fresh sender pairs with it.
	d1 := party(mod, "recv")
	waitWaiting(t, mod, "recv", 1)
	select {
	case err := <-d1:
		t.Fatalf("receiver paired with a ghost: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	d2 := party(mod, "send")
	for i, d := range []<-chan error{d1, d2} {
		select {
		case err := <-d:
			if err != nil {
				t.Fatalf("side %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("side %d never proceeded", i)
		}
	}
}

// TestRecycledInvocationCarriesNoBarrierGeneration checks that a barrier
// party's generation attribute does not outlive its call. Proxy.Invoke
// releases each record for reuse; here the body of every released party
// plants a stale generation on its record — the state a hook that failed
// to retract would leave — and the next lone party, which may draw that
// record, must still wait for a partner instead of passing as released.
func TestRecycledInvocationCarriesNoBarrierGeneration(t *testing.T) {
	b, err := NewBarrier(2, "m")
	if err != nil {
		t.Fatal(err)
	}
	p := proxy.New(moderator.New("comp"))
	if err := p.Bind("m", func(inv *aspect.Invocation) (any, error) {
		inv.SetAttr(generationKey{}, uint64(0))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Moderator().Register("m", aspect.KindSynchronization, b.Aspect("barrier")); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				_, err := p.Invoke(context.Background(), "m")
				errs <- err
			}()
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: cohort party: %v", round, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := p.Invoke(ctx, "m")
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("round %d: lone party after %d cohorts = %v, want it to wait", round, b.Generation(), err)
		}
	}
}
