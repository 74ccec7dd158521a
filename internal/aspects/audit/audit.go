// Package audit provides the audit-trail aspect of the framework: a
// structured record of every guarded invocation's pre-activation,
// completion, and cancellation, attributable to the authenticated
// principal. Audits are one of the interaction requirements the paper
// names for open e-commerce systems (Section 2).
//
// A Trail may be shared by several components (and therefore several
// admission locks), so unlike guard state it carries its own mutex. Events
// are retained in a bounded ring; an optional sink receives each event as a
// JSON line.
package audit

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
)

// Phase identifies which hook produced an event.
type Phase string

// Phases recorded by the aspect.
const (
	PhasePre    Phase = "pre"    // admission granted
	PhasePost   Phase = "post"   // method completed
	PhaseCancel Phase = "cancel" // admission rolled back (block retry or abort)
)

// Event is one audit record.
type Event struct {
	Seq        uint64    `json:"seq"`
	Time       time.Time `json:"time"`
	Component  string    `json:"component"`
	Method     string    `json:"method"`
	Invocation uint64    `json:"invocation"`
	Phase      Phase     `json:"phase"`
	Principal  string    `json:"principal,omitempty"`
	Err        string    `json:"err,omitempty"`
}

// Trail is a bounded, concurrency-safe audit log.
type Trail struct {
	mu     sync.Mutex
	ring   []Event
	next   int // next write position
	filled bool
	seq    uint64
	sink   io.Writer
	now    func() time.Time
	drops  uint64 // sink write failures
}

// TrailOption configures NewTrail.
type TrailOption func(*Trail)

// WithSink streams each event to w as a JSON line, in addition to the ring.
func WithSink(w io.Writer) TrailOption {
	return func(t *Trail) { t.sink = w }
}

// WithClock overrides the event clock (tests).
func WithClock(now func() time.Time) TrailOption {
	return func(t *Trail) { t.now = now }
}

// NewTrail creates a trail retaining the last capacity events.
func NewTrail(capacity int, opts ...TrailOption) (*Trail, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("audit: trail capacity %d must be positive", capacity)
	}
	t := &Trail{
		ring: make([]Event, capacity),
		now:  time.Now,
	}
	for _, opt := range opts {
		opt(t)
	}
	return t, nil
}

// record appends one event.
func (t *Trail) record(inv *aspect.Invocation, phase Phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e := Event{
		Seq:        t.seq,
		Time:       t.now(),
		Component:  inv.Component(),
		Method:     inv.Method(),
		Invocation: inv.ID(),
		Phase:      phase,
	}
	if p := auth.PrincipalOf(inv); p != nil {
		e.Principal = p.Name
	}
	if phase == PhasePost && inv.Err() != nil {
		e.Err = inv.Err().Error()
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	if t.sink != nil {
		if b, err := json.Marshal(e); err == nil {
			if _, werr := t.sink.Write(append(b, '\n')); werr != nil {
				t.drops++
			}
		} else {
			t.drops++
		}
	}
}

// Aspect returns the audit aspect for registration. Many methods and
// components may share one trail.
func (t *Trail) Aspect(name string) aspect.Aspect {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindAudit,
		// The trail carries its own mutex (it spans components), so the
		// aspect needs no admission lock and never blocks.
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			t.record(inv, PhasePre)
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { t.record(inv, PhasePost) },
		CancelFn: func(inv *aspect.Invocation) { t.record(inv, PhaseCancel) },
	}
}

// Events returns the retained events, oldest first.
func (t *Trail) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.filled {
		out := make([]Event, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Len returns the number of retained events.
func (t *Trail) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.filled {
		return len(t.ring)
	}
	return t.next
}

// Seq returns the total number of events ever recorded.
func (t *Trail) Seq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Drops returns the number of events the sink failed to persist.
func (t *Trail) Drops() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drops
}
