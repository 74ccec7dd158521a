// Package waitq implements the wait queues of the Aspect Moderator
// framework: when an aspect's precondition returns Block, the calling
// goroutine parks on the queue of the participating method until a
// post-activation phase notifies it (the paper's per-method waiting queues
// built on Java's wait/notify).
//
// Unlike sync.Cond, a Queue supports pluggable wake policies (FIFO ticket
// fairness, LIFO, priority) and context-aware waits, which the paper's
// Figure 11 models as an interrupted wait aborting the invocation.
//
// A Queue is bound at construction to the external mutex that guards the
// moderator's admission state; Wait, Notify, Broadcast and Len must be
// called with that mutex held. Wait releases the mutex while parked and
// reacquires it before returning, exactly like sync.Cond.Wait.
//
// The moderator's optimistic admission path relies on an
// enqueue-before-unlock invariant: a parking caller is registered in the
// moderator's global waiter count before any lock that serializes guard
// state (the domain mutex or its guard cell) is released, and only then
// does Wait release the mutex. A lock-free admission that observes zero
// waiters under the guard cell can therefore safely skip wake fan-out:
// no caller can be parked-but-uncounted at that point.
package waitq

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Policy selects which blocked caller a Notify wakes.
type Policy int

const (
	// FIFO wakes the longest-waiting caller (ticket order). This is the
	// fairness default.
	FIFO Policy = iota + 1
	// LIFO wakes the most recently blocked caller.
	LIFO
	// Priority wakes the caller with the highest priority; ties break in
	// FIFO order.
	Priority
)

// String returns the policy's name.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case LIFO:
		return "lifo"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Valid reports whether p is a defined policy.
func (p Policy) Valid() bool { return p == FIFO || p == LIFO || p == Priority }

// Stats are cumulative counters for one queue. All fields are safe to read
// concurrently.
type Stats struct {
	Waits      uint64 // callers that parked at least once
	Notifies   uint64 // single wake-ups delivered
	Broadcasts uint64 // broadcast operations performed
	Cancels    uint64 // waits abandoned due to context cancellation
}

// waiter is one parked caller. Waiters are recycled through a pool, so
// parking allocates nothing in steady state: the channel holds at most the
// one wake token of the current park, sent under the queue's mutex when the
// waiter is taken off the queue, and a waiter returns to the pool only once
// that token has been received.
type waiter struct {
	ch       chan struct{} // capacity 1
	priority int
	ticket   uint64
	signaled bool
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

// Queue is a named wait queue with a wake policy. The zero value is not
// usable; construct with New.
type Queue struct {
	name   string
	policy Policy
	mu     *sync.Mutex // external admission mutex; guards waiters

	waiters []*waiter

	waits      atomic.Uint64
	notifies   atomic.Uint64
	broadcasts atomic.Uint64
	cancels    atomic.Uint64
}

// New creates a queue bound to the external mutex mu. An invalid policy
// defaults to FIFO.
func New(name string, policy Policy, mu *sync.Mutex) *Queue {
	if !policy.Valid() {
		policy = FIFO
	}
	return &Queue{name: name, policy: policy, mu: mu}
}

// Name returns the queue's name.
func (q *Queue) Name() string { return q.name }

// Policy returns the queue's wake policy.
func (q *Queue) Policy() Policy { return q.policy }

// Len returns the number of parked callers. The bound mutex must be held.
func (q *Queue) Len() int { return len(q.waiters) }

// Stats returns a snapshot of the queue's counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Waits:      q.waits.Load(),
		Notifies:   q.notifies.Load(),
		Broadcasts: q.broadcasts.Load(),
		Cancels:    q.cancels.Load(),
	}
}

// Wait parks the calling goroutine until a Notify or Broadcast selects it,
// or until ctx is cancelled. The bound mutex must be held on entry; it is
// released while parked and reacquired before Wait returns. A non-nil
// return means the wait was abandoned (context cancellation) and carries
// the context's error.
//
// The ticket orders FIFO/LIFO wake-ups (and breaks priority ties). Callers
// supply it so that an invocation that re-parks after a failed guard
// re-evaluation keeps its original arrival position — the moderator issues
// one sticky ticket per invocation.
//
// As with condition variables, a normal return does not guarantee the
// guarded condition holds: callers must re-evaluate it in a loop.
func (q *Queue) Wait(ctx context.Context, priority int, ticket uint64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := waiterPool.Get().(*waiter)
	w.priority, w.ticket, w.signaled = priority, ticket, false
	q.waiters = append(q.waiters, w)
	q.waits.Add(1)

	q.mu.Unlock()
	select {
	case <-w.ch:
		q.mu.Lock()
		waiterPool.Put(w)
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.signaled {
			// A notification raced with our cancellation: the wake-up
			// was consumed by us but we are abandoning, so take its token
			// (a recycled waiter must not carry one into its next park)
			// and pass the wake-up on to another waiter rather than
			// losing it.
			<-w.ch
			q.notifyLocked()
		} else {
			q.removeLocked(w)
		}
		waiterPool.Put(w)
		q.cancels.Add(1)
		return ctx.Err()
	}
}

// Notify wakes one parked caller, chosen by the queue's policy. It is a
// no-op on an empty queue. The bound mutex must be held.
func (q *Queue) Notify() {
	if q.notifyLocked() {
		q.notifies.Add(1)
	}
}

// Broadcast wakes every parked caller. The bound mutex must be held.
func (q *Queue) Broadcast() {
	if len(q.waiters) == 0 {
		return
	}
	for _, w := range q.waiters {
		w.signaled = true
		w.ch <- struct{}{}
	}
	q.waiters = q.waiters[:0]
	q.broadcasts.Add(1)
}

// notifyLocked selects and signals one waiter per policy. It reports
// whether a waiter was woken.
func (q *Queue) notifyLocked() bool {
	if len(q.waiters) == 0 {
		return false
	}
	idx := q.selectLocked()
	w := q.waiters[idx]
	q.waiters = append(q.waiters[:idx], q.waiters[idx+1:]...)
	w.signaled = true
	w.ch <- struct{}{}
	return true
}

// selectLocked returns the index of the waiter the policy picks.
func (q *Queue) selectLocked() int {
	best := 0
	switch q.policy {
	case LIFO:
		for i := 1; i < len(q.waiters); i++ {
			if q.waiters[i].ticket > q.waiters[best].ticket {
				best = i
			}
		}
	case Priority:
		for i := 1; i < len(q.waiters); i++ {
			w, b := q.waiters[i], q.waiters[best]
			if w.priority > b.priority ||
				(w.priority == b.priority && w.ticket < b.ticket) {
				best = i
			}
		}
	default: // FIFO
		for i := 1; i < len(q.waiters); i++ {
			if q.waiters[i].ticket < q.waiters[best].ticket {
				best = i
			}
		}
	}
	return best
}

func (q *Queue) removeLocked(target *waiter) {
	for i, w := range q.waiters {
		if w == target {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}
