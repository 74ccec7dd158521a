package waitq

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var ticketSeq atomic.Uint64

// startWaiter parks a goroutine on q (with the next arrival ticket) and
// returns a channel that yields the wait's result when it returns.
func startWaiter(q *Queue, mu *sync.Mutex, ctx context.Context, prio int) <-chan error {
	done := make(chan error, 1)
	ready := make(chan struct{})
	ticket := ticketSeq.Add(1)
	go func() {
		mu.Lock()
		close(ready)
		err := q.Wait(ctx, prio, ticket)
		mu.Unlock()
		done <- err
	}()
	<-ready
	return done
}

// waitForLen spins until the queue holds n waiters (waiters enqueue under
// the lock before parking, so observing Len==n means all have parked or
// are about to park holding their tickets in order of arrival... arrival
// order is what tests control via sequential startWaiter calls).
func waitForLen(t *testing.T, q *Queue, mu *sync.Mutex, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		l := q.Len()
		mu.Unlock()
		if l == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (at %d)", n, l)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkContext is a context a wait is tested under, with its subtest name.
type parkContext struct {
	name string
	ctx  context.Context
}

// parkContexts returns one context that can never be cancelled, under
// which Wait receives its wake token alone, and one that can, under which
// Wait selects on the token and ctx.Done(). Wake order must not depend on
// which of the two a caller parked under.
func parkContexts(t *testing.T) []parkContext {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return []parkContext{{"background", context.Background()}, {"cancellable", ctx}}
}

func TestPolicyString(t *testing.T) {
	cases := map[Policy]string{FIFO: "fifo", LIFO: "lifo", Priority: "priority", Policy(9): "policy(9)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestInvalidPolicyDefaultsToFIFO(t *testing.T) {
	var mu sync.Mutex
	q := New("q", Policy(77), &mu)
	if q.Policy() != FIFO {
		t.Fatalf("policy = %v, want FIFO", q.Policy())
	}
}

func TestNotifyWakesOne(t *testing.T) {
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	d1 := startWaiter(q, &mu, context.Background(), 0)
	waitForLen(t, q, &mu, 1)

	mu.Lock()
	q.Notify()
	mu.Unlock()

	if err := <-d1; err != nil {
		t.Fatalf("woken waiter returned %v", err)
	}
	if got := q.Stats(); got.Notifies != 1 || got.Waits != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestNotifyOnEmptyQueueIsNoop(t *testing.T) {
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	mu.Lock()
	q.Notify()
	q.Broadcast()
	mu.Unlock()
	if s := q.Stats(); s.Notifies != 0 || s.Broadcasts != 0 {
		t.Errorf("empty notify/broadcast counted: %+v", s)
	}
}

func TestFIFOOrder(t *testing.T) {
	for _, c := range parkContexts(t) {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			q := New("q", FIFO, &mu)
			var dones []<-chan error
			for i := 0; i < 3; i++ {
				dones = append(dones, startWaiter(q, &mu, c.ctx, 0))
				waitForLen(t, q, &mu, i+1)
			}
			// Wake one at a time; FIFO must release in arrival order.
			for i := 0; i < 3; i++ {
				mu.Lock()
				q.Notify()
				mu.Unlock()
				select {
				case err := <-dones[i]:
					if err != nil {
						t.Fatalf("waiter %d: %v", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("waiter %d not woken in FIFO order", i)
				}
				// Later waiters must still be parked.
				for j := i + 1; j < 3; j++ {
					select {
					case <-dones[j]:
						t.Fatalf("waiter %d woke before its turn", j)
					default:
					}
				}
			}
		})
	}
}

func TestLIFOOrder(t *testing.T) {
	for _, c := range parkContexts(t) {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			q := New("q", LIFO, &mu)
			var dones []<-chan error
			for i := 0; i < 3; i++ {
				dones = append(dones, startWaiter(q, &mu, c.ctx, 0))
				waitForLen(t, q, &mu, i+1)
			}
			for i := 2; i >= 0; i-- {
				mu.Lock()
				q.Notify()
				mu.Unlock()
				select {
				case err := <-dones[i]:
					if err != nil {
						t.Fatalf("waiter %d: %v", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("waiter %d not woken in LIFO order", i)
				}
			}
		})
	}
}

func TestPriorityOrderWithFIFOTieBreak(t *testing.T) {
	for _, c := range parkContexts(t) {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			q := New("q", Priority, &mu)
			// Arrival order: prio 1, prio 5 (a), prio 5 (b), prio 3.
			prios := []int{1, 5, 5, 3}
			var dones []<-chan error
			for i, p := range prios {
				dones = append(dones, startWaiter(q, &mu, c.ctx, p))
				waitForLen(t, q, &mu, i+1)
			}
			// Expected wake order: index 1 (prio5 first-arrived), 2 (prio5), 3 (prio3), 0 (prio1).
			order := []int{1, 2, 3, 0}
			for _, idx := range order {
				mu.Lock()
				q.Notify()
				mu.Unlock()
				select {
				case err := <-dones[idx]:
					if err != nil {
						t.Fatalf("waiter %d: %v", idx, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("waiter %d not woken in priority order", idx)
				}
			}
		})
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	for _, c := range parkContexts(t) {
		t.Run(c.name, func(t *testing.T) {
			var mu sync.Mutex
			q := New("q", FIFO, &mu)
			var dones []<-chan error
			for i := 0; i < 5; i++ {
				dones = append(dones, startWaiter(q, &mu, c.ctx, 0))
			}
			waitForLen(t, q, &mu, 5)
			mu.Lock()
			q.Broadcast()
			if q.Len() != 0 {
				t.Errorf("queue not drained after broadcast: %d", q.Len())
			}
			mu.Unlock()
			for i, d := range dones {
				if err := <-d; err != nil {
					t.Errorf("waiter %d: %v", i, err)
				}
			}
			if s := q.Stats(); s.Broadcasts != 1 || s.Waits != 5 {
				t.Errorf("stats = %+v", s)
			}
		})
	}
}

func TestWaitCancelledBeforeParking(t *testing.T) {
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mu.Lock()
	err := q.Wait(ctx, 0, ticketSeq.Add(1))
	if q.Len() != 0 {
		t.Error("cancelled-before-park wait must not enqueue")
	}
	mu.Unlock()
	if err == nil {
		t.Fatal("want context error")
	}
}

func TestWaitCancelledWhileParked(t *testing.T) {
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	ctx, cancel := context.WithCancel(context.Background())
	done := startWaiter(q, &mu, ctx, 0)
	waitForLen(t, q, &mu, 1)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled wait must return an error")
	}
	mu.Lock()
	if q.Len() != 0 {
		t.Error("cancelled waiter must be removed from the queue")
	}
	mu.Unlock()
	if s := q.Stats(); s.Cancels != 1 {
		t.Errorf("cancels = %d, want 1", s.Cancels)
	}
}

func TestCancelRaceDoesNotLoseWakeup(t *testing.T) {
	// If a waiter is signalled and cancelled at nearly the same time and
	// abandons, the wake-up must be handed to another waiter.
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	ctx, cancel := context.WithCancel(context.Background())
	d1 := startWaiter(q, &mu, ctx, 0) // will be cancelled
	waitForLen(t, q, &mu, 1)
	d2 := startWaiter(q, &mu, context.Background(), 0) // must inherit the wake
	waitForLen(t, q, &mu, 2)

	// Signal waiter 1 while holding the lock so it cannot complete its
	// select before we also cancel: both channels become ready, and the
	// select may pick ctx.Done even though it was signalled.
	mu.Lock()
	q.Notify() // selects waiter 1 (FIFO)
	cancel()
	mu.Unlock()

	// Whichever branch waiter 1's select takes, exactly one of the two
	// outcomes must hold: waiter 1 consumed the wake (d1 nil error), or it
	// abandoned and waiter 2 was woken instead.
	select {
	case err := <-d1:
		if err != nil {
			// Abandoned: the wake must have been passed to waiter 2.
			select {
			case err2 := <-d2:
				if err2 != nil {
					t.Fatalf("re-notified waiter got %v", err2)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("wake-up lost after cancel race")
			}
		} else {
			// Waiter 1 consumed the wake; waiter 2 stays parked.
			select {
			case <-d2:
				t.Fatal("waiter 2 woke without a notify")
			case <-time.After(50 * time.Millisecond):
			}
			mu.Lock()
			q.Broadcast() // release waiter 2 for cleanup
			mu.Unlock()
			<-d2
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter 1 never returned")
	}
}

func TestManyWaitersManyNotifiesConcurrent(t *testing.T) {
	// Stress: N waiters, N notifies from a separate goroutine; all waiters
	// must eventually return without error and the queue must drain.
	const n = 64
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticket := ticketSeq.Add(1)
			mu.Lock()
			err := q.Wait(context.Background(), 0, ticket)
			mu.Unlock()
			errs <- err
		}()
	}
	waitForLen(t, q, &mu, n)
	for i := 0; i < n; i++ {
		mu.Lock()
		q.Notify()
		mu.Unlock()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("waiter error: %v", err)
		}
	}
	mu.Lock()
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d", q.Len())
	}
	mu.Unlock()
}

func TestSpuriousConditionLoopPattern(t *testing.T) {
	// Demonstrates (and pins) the contract that Wait returns with the lock
	// held so a guard can be re-checked in a loop, as the moderator does.
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	ready := false
	got := make(chan struct{})
	go func() {
		ticket := ticketSeq.Add(1)
		mu.Lock()
		for !ready {
			if err := q.Wait(context.Background(), 0, ticket); err != nil {
				t.Errorf("wait: %v", err)
				break
			}
		}
		mu.Unlock()
		close(got)
	}()
	waitForLen(t, q, &mu, 1)
	// A wake-up without the condition: consumer must loop and re-park.
	mu.Lock()
	q.Notify()
	mu.Unlock()
	waitForLen(t, q, &mu, 1)
	select {
	case <-got:
		t.Fatal("consumer proceeded without the condition")
	default:
	}
	mu.Lock()
	ready = true
	q.Notify()
	mu.Unlock()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never proceeded")
	}
}
