package waitq

// Tests for the pooled waiter: parking allocates nothing in steady state,
// and a waiter that was signalled and cancelled at once goes back to the
// pool without its wake token.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spinForLen is waitForLen without the millisecond sleeps, for loops that
// park thousands of times.
func spinForLen(t *testing.T, q *Queue, mu *sync.Mutex, n int) {
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
		runtime.Gosched()
	}
}

// TestParkAllocatesNothing pins the waiter pool: one park + notify round
// trip, repeated, allocates nothing once the pool and the queue's slice are
// warm.
func TestParkAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	ctx := context.Background()
	var parks, stop atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.Lock()
		defer mu.Unlock()
		for stop.Load() == 0 {
			if err := q.Wait(ctx, 0, 1); err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			parks.Add(1)
		}
	}()
	roundTrip := func() {
		want := parks.Load() + 1
		for woke := false; parks.Load() < want; runtime.Gosched() {
			mu.Lock()
			if !woke && q.Len() == 1 {
				q.Notify()
				woke = true
			}
			mu.Unlock()
		}
	}
	roundTrip() // warm the pool and the waiters slice
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Errorf("park + notify round trip allocates %.2f times, want 0", avg)
	}
	stop.Store(1)
	roundTrip()
	<-done
}

// TestCancelRaceRecycledWaiterCarriesNoToken re-runs the notify-vs-cancel
// race of TestCancelRaceDoesNotLoseWakeup many times, in both orders: a
// parked waiter takes whichever event reaches it first, so notify-first
// rounds consume the wake and cancel-first rounds abandon the wait already
// signalled. Every round is followed by a park on the same pool that must
// stay blocked until it is notified: a waiter recycled with its wake token
// still in the channel would return at once.
func TestCancelRaceRecycledWaiterCarriesNoToken(t *testing.T) {
	const rounds = 1000
	var mu sync.Mutex
	q := New("q", FIFO, &mu)
	abandoned := 0
	for r := 0; r < rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		d1 := startWaiter(q, &mu, ctx, 0)
		spinForLen(t, q, &mu, 1)
		// Both events land under the lock, so the waiter cannot reacquire
		// it in between: when cancelled first it is still on the queue for
		// Notify to pick.
		mu.Lock()
		if r%2 == 0 {
			q.Notify()
			cancel()
		} else {
			cancel()
			q.Notify()
		}
		mu.Unlock()
		select {
		case err := <-d1:
			if err != nil {
				abandoned++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: signalled and cancelled waiter never returned", r)
		}

		d2 := startWaiter(q, &mu, context.Background(), 0)
		spinForLen(t, q, &mu, 1)
		select {
		case err := <-d2:
			t.Fatalf("round %d: a fresh park returned (%v) before any notify: stale wake token", r, err)
		case <-time.After(100 * time.Microsecond):
		}
		mu.Lock()
		q.Notify()
		mu.Unlock()
		select {
		case err := <-d2:
			if err != nil {
				t.Fatalf("round %d: notified waiter got %v", r, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: notified waiter never returned", r)
		}
	}
	if abandoned < rounds/4 || abandoned > 3*rounds/4 {
		t.Fatalf("%d of %d rounds abandoned the wait: the race was not run both ways", abandoned, rounds)
	}
	if st := q.Stats(); st.Cancels != uint64(abandoned) || st.Notifies != 2*rounds {
		t.Fatalf("cancels = %d with %d abandoned waits, notifies = %d over %d rounds", st.Cancels, abandoned, st.Notifies, rounds)
	}
}
