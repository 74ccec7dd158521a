package syncguard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aspect"
	"repro/internal/moderator"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

func TestNewGuardRequiresReady(t *testing.T) {
	if _, err := NewGuard("g", GuardSpec{}); err == nil {
		t.Fatal("nil Ready must error")
	}
}

func TestGuardDefaults(t *testing.T) {
	g, err := NewGuard("g", GuardSpec{Ready: func(*aspect.Invocation) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind() != aspect.KindSynchronization {
		t.Errorf("default kind = %q", g.Kind())
	}
	if g.Name() != "g" {
		t.Errorf("name = %q", g.Name())
	}
	i := inv("m")
	if v := g.Precondition(i); v != aspect.Resume {
		t.Errorf("ready guard verdict = %v", v)
	}
	g.Postaction(i) // nil release must not panic
	g.Cancel(i)
	if g.Wakes() != nil {
		t.Errorf("wakes = %v", g.Wakes())
	}
}

func TestGuardKindOverride(t *testing.T) {
	g, err := NewGuard("g", GuardSpec{
		Kind:  aspect.KindScheduling,
		Ready: func(*aspect.Invocation) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Kind() != aspect.KindScheduling {
		t.Errorf("kind = %q", g.Kind())
	}
}

func TestGuardBlocksWhenNotReady(t *testing.T) {
	ready := false
	admits := 0
	g, err := NewGuard("g", GuardSpec{
		Ready: func(*aspect.Invocation) bool { return ready },
		Admit: func(*aspect.Invocation) { admits++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := g.Precondition(inv("m")); v != aspect.Block {
		t.Errorf("verdict = %v, want Block", v)
	}
	if admits != 0 {
		t.Error("blocked precondition must not admit")
	}
	ready = true
	if v := g.Precondition(inv("m")); v != aspect.Resume {
		t.Errorf("verdict = %v, want Resume", v)
	}
	if admits != 1 {
		t.Errorf("admits = %d, want 1", admits)
	}
}

func TestMutexAdmissionProtocol(t *testing.T) {
	m := NewMutex("open", "assign")
	a := m.Aspect("mutex")
	i := inv("open")
	if v := a.Precondition(i); v != aspect.Resume {
		t.Fatalf("first admission: %v", v)
	}
	if !m.Locked() {
		t.Fatal("mutex must be held")
	}
	if v := a.Precondition(inv("assign")); v != aspect.Block {
		t.Fatalf("second admission: %v, want Block", v)
	}
	a.Postaction(i)
	if m.Locked() {
		t.Fatal("mutex must be released")
	}
	// Cancel also releases.
	if v := a.Precondition(inv("open")); v != aspect.Resume {
		t.Fatal("re-admission failed")
	}
	a.(aspect.Canceler).Cancel(i)
	if m.Locked() {
		t.Fatal("cancel must release")
	}
	if w := a.(aspect.Waker).Wakes(); len(w) != 2 {
		t.Errorf("wakes = %v", w)
	}
}

func TestSemaphoreValidation(t *testing.T) {
	if _, err := NewSemaphore(0); err == nil {
		t.Error("limit 0 must error")
	}
	if _, err := NewSemaphore(-1); err == nil {
		t.Error("negative limit must error")
	}
}

func TestSemaphoreCounting(t *testing.T) {
	s, err := NewSemaphore(2, "m")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Aspect("sem")
	i1, i2 := inv("m"), inv("m")
	if a.Precondition(i1) != aspect.Resume || a.Precondition(i2) != aspect.Resume {
		t.Fatal("first two admissions must resume")
	}
	if s.InUse() != 2 {
		t.Fatalf("inUse = %d", s.InUse())
	}
	if a.Precondition(inv("m")) != aspect.Block {
		t.Fatal("third admission must block")
	}
	a.Postaction(i1)
	if a.Precondition(inv("m")) != aspect.Resume {
		t.Fatal("admission after release must resume")
	}
}

func TestBufferValidation(t *testing.T) {
	if _, err := NewBuffer(0, "open", "assign"); err == nil {
		t.Error("capacity 0 must error")
	}
	if _, err := NewBuffer(1, "", "assign"); err == nil {
		t.Error("empty producer must error")
	}
	if _, err := NewBuffer(1, "open", ""); err == nil {
		t.Error("empty consumer must error")
	}
	if _, err := NewBuffer(1, "open", "open"); err == nil {
		t.Error("same method for both roles must error")
	}
}

func TestBufferProducerConsumerProtocol(t *testing.T) {
	b, err := NewBuffer(2, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	prod, cons := b.ProducerAspect(), b.ConsumerAspect()

	// Empty buffer: consumer blocks, producer admits.
	if v := cons.Precondition(inv("assign")); v != aspect.Block {
		t.Fatalf("consume from empty: %v", v)
	}
	p1 := inv("open")
	if v := prod.Precondition(p1); v != aspect.Resume {
		t.Fatalf("produce into empty: %v", v)
	}
	// Exclusive mode: second producer blocks while the first is active.
	if v := prod.Precondition(inv("open")); v != aspect.Block {
		t.Fatalf("concurrent producer: %v, want Block", v)
	}
	// Consumer still blocks: the item is reserved, not committed.
	if v := cons.Precondition(inv("assign")); v != aspect.Block {
		t.Fatalf("consume of uncommitted item: %v, want Block", v)
	}
	prod.Postaction(p1)
	if b.Count() != 1 {
		t.Fatalf("count = %d, want 1", b.Count())
	}
	// Now the consumer may proceed.
	c1 := inv("assign")
	if v := cons.Precondition(c1); v != aspect.Resume {
		t.Fatalf("consume committed item: %v", v)
	}
	cons.Postaction(c1)
	if b.Count() != 0 {
		t.Fatalf("count = %d, want 0", b.Count())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferCapacityRespectedViaReservation(t *testing.T) {
	b, err := NewBuffer(1, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	prod, cons := b.ProducerAspect(), b.ConsumerAspect()
	p1 := inv("open")
	if prod.Precondition(p1) != aspect.Resume {
		t.Fatal("first produce must admit")
	}
	// The single slot is reserved but not committed: no second producer,
	// and no consumer either.
	if prod.Precondition(inv("open")) != aspect.Block {
		t.Fatal("reservation must prevent overfill")
	}
	if cons.Precondition(inv("assign")) != aspect.Block {
		t.Fatal("a reserved slot must not be consumable before its producer commits")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	prod.Postaction(p1)
	if prod.Precondition(inv("open")) != aspect.Block {
		t.Fatal("a committed item must keep the full buffer closed to producers")
	}
	if cons.Precondition(inv("assign")) != aspect.Resume {
		t.Fatal("a committed item must admit a consumer")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferCancelRollsBackReservation(t *testing.T) {
	b, err := NewBuffer(1, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	prod := b.ProducerAspect()
	p1 := inv("open")
	if prod.Precondition(p1) != aspect.Resume {
		t.Fatal("admit failed")
	}
	prod.(aspect.Canceler).Cancel(p1)
	if b.Count() != 0 {
		t.Fatalf("count after cancel = %d", b.Count())
	}
	// The slot must be available again.
	if prod.Precondition(inv("open")) != aspect.Resume {
		t.Fatal("slot not released by cancel")
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferFailedBodyDoesNotCommit(t *testing.T) {
	b, err := NewBuffer(1, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	prod := b.ProducerAspect()
	p1 := inv("open")
	if prod.Precondition(p1) != aspect.Resume {
		t.Fatal("admit failed")
	}
	p1.SetResult(nil, context.DeadlineExceeded) // body failed
	prod.Postaction(p1)
	if b.Count() != 0 {
		t.Fatalf("failed produce committed: count = %d", b.Count())
	}
	cons := b.ConsumerAspect()
	c1 := inv("assign")
	if cons.Precondition(c1) != aspect.Block {
		t.Fatal("consumer must not see a failed produce")
	}
}

func TestRWLockExclusion(t *testing.T) {
	rw := NewRWLock("get", "put")
	r, w := rw.ReaderAspect("r"), rw.WriterAspect("w")

	r1, r2 := inv("get"), inv("get")
	if r.Precondition(r1) != aspect.Resume || r.Precondition(r2) != aspect.Resume {
		t.Fatal("concurrent readers must admit")
	}
	if rw.Readers() != 2 {
		t.Fatalf("readers = %d", rw.Readers())
	}
	if w.Precondition(inv("put")) != aspect.Block {
		t.Fatal("writer must block while readers active")
	}
	r.Postaction(r1)
	r.Postaction(r2)
	w1 := inv("put")
	if w.Precondition(w1) != aspect.Resume {
		t.Fatal("writer must admit when idle")
	}
	if !rw.Writing() {
		t.Fatal("writing flag not set")
	}
	if r.Precondition(inv("get")) != aspect.Block {
		t.Fatal("reader must block while writer active")
	}
	if w.Precondition(inv("put")) != aspect.Block {
		t.Fatal("second writer must block")
	}
	w.Postaction(w1)
	if err := rw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.Precondition(inv("get")) != aspect.Resume {
		t.Fatal("reader must admit after writer")
	}
}

// TestBufferUnderModeratorConcurrency drives the full protocol with real
// goroutines: P producers and C consumers transfer N items through a
// guarded ring buffer; nothing may be lost, duplicated, or overfilled.
func TestBufferUnderModeratorConcurrency(t *testing.T) {
	const capacity, producers, consumers, perProducer = 4, 4, 4, 50
	b, err := NewBuffer(capacity, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	mod := moderator.New("ticket")
	if err := mod.Register("open", aspect.KindSynchronization, b.ProducerAspect()); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("assign", aspect.KindSynchronization, b.ConsumerAspect()); err != nil {
		t.Fatal(err)
	}

	// The functional component: a ring buffer with no lock. The guard
	// admits one producer and one consumer at a time, and the two may run
	// together, so the ends share only size, atomically — ticket.Server's
	// single-producer/single-consumer construction.
	ring := make([]int, capacity)
	head, tail := 0, 0 // consumer-owned, producer-owned
	var size atomic.Int64
	push := func(v int) {
		if size.Load() == capacity {
			t.Error("ring overflow: synchronization aspect failed")
			return
		}
		ring[tail] = v
		tail = (tail + 1) % capacity
		size.Add(1)
	}
	pop := func() int {
		if size.Load() == 0 {
			t.Error("ring underflow: synchronization aspect failed")
			return -1
		}
		v := ring[head]
		head = (head + 1) % capacity
		size.Add(-1)
		return v
	}

	total := producers * perProducer
	var wg sync.WaitGroup
	received := make(chan int, total)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				i := inv("open")
				adm, err := mod.Preactivation(i)
				if err != nil {
					t.Errorf("producer: %v", err)
					return
				}
				push(p*perProducer + k)
				mod.Postactivation(i, adm)
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < total/consumers; k++ {
				i := inv("assign")
				adm, err := mod.Preactivation(i)
				if err != nil {
					t.Errorf("consumer: %v", err)
					return
				}
				received <- pop()
				mod.Postactivation(i, adm)
			}
		}()
	}
	wg.Wait()
	close(received)

	seen := make(map[int]bool, total)
	for v := range received {
		if v < 0 {
			continue // underflow already reported
		}
		if seen[v] {
			t.Errorf("item %d received twice", v)
		}
		seen[v] = true
	}
	if len(seen) != total {
		t.Errorf("received %d distinct items, want %d", len(seen), total)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if b.Count() != 0 {
		t.Errorf("final count = %d, want 0", b.Count())
	}
}
