package obs

// Per-domain bounded event rings. The memory model is deliberately
// asymmetric: writers arrive from the admission path holding a domain
// mutex, so a write must NEVER block — Put takes the ring lock with
// TryLock and, on contention, drops the event and bumps an atomic drop
// counter instead of waiting. Readers (the /trace endpoint, tests) take
// the lock outright; the only writer they can collide with is a
// same-domain admission, which then records a drop rather than stalling.
//
// Because every writer of one ring already holds that ring's domain mutex
// in the moderator, writers never contend with each other — only with
// readers. Sequence numbers are assigned under the ring lock, so the
// events of one domain that make it into the ring carry strictly
// increasing Seq in admission order; drops leave gaps in time, never
// reordering.

import (
	"sync"
	"sync/atomic"

	"repro/internal/moderator"
)

// Event is the JSON-able form of one admission lifecycle event as stored
// in a ring.
type Event struct {
	// Seq increases strictly within a domain, in admission order.
	Seq uint64 `json:"seq"`
	// At is the wall-clock capture time in Unix nanoseconds.
	At         int64  `json:"at"`
	Domain     uint64 `json:"domain"`
	Op         string `json:"op"`
	Component  string `json:"component,omitempty"`
	Method     string `json:"method,omitempty"`
	Layer      string `json:"layer,omitempty"`
	Aspect     string `json:"aspect,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	Invocation uint64 `json:"invocation,omitempty"`
	Ticket     uint64 `json:"ticket,omitempty"`
	Depth      int    `json:"depth,omitempty"`
	Aspects    int    `json:"aspects,omitempty"`
	Nanos      int64  `json:"nanos,omitempty"`
	Err        string `json:"err,omitempty"`
}

// eventFrom converts a moderator trace event captured at wall-clock at.
func eventFrom(ev moderator.TraceEvent, at int64) Event {
	e := Event{
		At:         at,
		Domain:     ev.Domain,
		Op:         ev.Op.String(),
		Component:  ev.Component,
		Method:     ev.Method,
		Layer:      ev.Layer,
		Aspect:     ev.Aspect,
		Kind:       string(ev.Kind),
		Invocation: ev.Invocation,
		Ticket:     ev.Ticket,
		Depth:      ev.Depth,
		Aspects:    ev.Aspects,
		Nanos:      ev.Nanos,
		Err:        ev.Err,
	}
	if ev.Op == moderator.TraceVerdict {
		e.Verdict = ev.Verdict.String()
	}
	return e
}

// Ring is one domain's bounded event buffer.
type Ring struct {
	drops atomic.Uint64

	mu     sync.Mutex
	buf    []Event
	next   int  // index of the next write
	filled bool // buf has wrapped at least once
	seq    uint64
}

// NewRing creates a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Put stores e, overwriting the oldest event when full. It never blocks:
// when the lock is contended (a reader is snapshotting), the event is
// dropped, the drop counter bumped, and Put reports false.
func (r *Ring) Put(e Event) bool {
	if !r.mu.TryLock() {
		r.drops.Add(1)
		return false
	}
	r.seq++
	e.Seq = r.seq
	if !r.filled && len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
		if len(r.buf) == cap(r.buf) {
			r.filled = true
			r.next = 0
		}
	} else {
		r.buf[r.next] = e
		r.next++
		if r.next == cap(r.buf) {
			r.next = 0
		}
	}
	r.mu.Unlock()
	return true
}

// Snapshot copies the buffered events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.filled {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Drops returns how many events were discarded due to reader contention.
func (r *Ring) Drops() uint64 { return r.drops.Load() }
