package sched

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
	"repro/internal/moderator"
	"repro/internal/waitq"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

func TestFairShareValidation(t *testing.T) {
	classify := func(*aspect.Invocation) string { return "c" }
	if _, err := NewFairShare(0, classify); err == nil {
		t.Error("limit 0 must error")
	}
	if _, err := NewFairShare(1, nil); err == nil {
		t.Error("nil classifier must error")
	}
}

func TestFairSharePerClientLimit(t *testing.T) {
	fs, err := NewFairShare(1, func(i *aspect.Invocation) string {
		s, _ := i.ArgString(0)
		return s
	}, "m")
	if err != nil {
		t.Fatal(err)
	}
	a := fs.Aspect("fair")
	alice1 := aspect.NewInvocation(context.Background(), "comp", "m", []any{"alice"})
	alice2 := aspect.NewInvocation(context.Background(), "comp", "m", []any{"alice"})
	bob1 := aspect.NewInvocation(context.Background(), "comp", "m", []any{"bob"})

	if a.Precondition(alice1) != aspect.Resume {
		t.Fatal("alice first must admit")
	}
	if a.Precondition(alice2) != aspect.Block {
		t.Fatal("alice second must block")
	}
	if a.Precondition(bob1) != aspect.Resume {
		t.Fatal("bob must not be impacted by alice's quota")
	}
	if fs.Outstanding("alice") != 1 || fs.Outstanding("bob") != 1 {
		t.Fatalf("outstanding = %d/%d", fs.Outstanding("alice"), fs.Outstanding("bob"))
	}
	a.Postaction(alice1)
	if fs.Outstanding("alice") != 0 {
		t.Fatal("completion must release the quota")
	}
	if a.Precondition(alice2) != aspect.Resume {
		t.Fatal("alice must be admitted after release")
	}
	// Cancel releases too.
	a.(aspect.Canceler).Cancel(alice2)
	if fs.Outstanding("alice") != 0 {
		t.Fatal("cancel must release the quota")
	}
}

func TestPriorityAdmissionUnderLoad(t *testing.T) {
	// E6 semantics: a held capacity-1 semaphore with priority policy must
	// admit a high-priority waiter before low-priority ones.
	c, err := syncguard.NewSemaphore(1, "m")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("comp",
		moderator.WithWakePolicy(waitq.Priority),
		moderator.WithWakeMode(moderator.WakeSingle))
	if err := mod.Register("m", aspect.KindScheduling, c.Aspect("semaphore")); err != nil {
		t.Fatal(err)
	}
	holder := inv("m")
	holderAdm, err := mod.Preactivation(holder)
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for _, p := range []int{1, 9} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			i := inv("m")
			i.Priority = p
			adm, err := mod.Preactivation(i)
			if err != nil {
				t.Errorf("prio %d: %v", p, err)
				return
			}
			results <- p
			mod.Postactivation(i, adm)
		}(p)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mod.Waiting("m") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("waiters never parked")
		}
		time.Sleep(time.Millisecond)
	}
	mod.Postactivation(holder, holderAdm)
	first := <-results
	second := <-results
	wg.Wait()
	if first != 9 || second != 1 {
		t.Errorf("admission order = %d,%d; want 9,1", first, second)
	}
}
