package moderator

// Admission tracing hooks. A Tracer installed with SetTracer receives
// structured lifecycle events from the admission path: ticket issued,
// per-aspect precondition verdicts, park/wake with wait durations, the
// admission itself, aborts, per-aspect postactions, and the completion
// receipt. The hooks are built for observation at production rates:
//
//   - Disabled (the default, and after SetTracer(nil)) the cost is one
//     atomic pointer load and a branch per pre- and post-activation —
//     nothing else changes on the hot path, no clock is read.
//   - Enabled, per-invocation detail (clock reads around every hook,
//     event emission) is SAMPLED: one in every Tracer.SampleEvery()
//     invocations per admission domain carries full detail, decided with
//     one domain-local atomic increment. The park/wake path is traced for
//     every invocation — parking already costs a scheduler round-trip, so
//     complete wait-duration data is worth the marginal clock reads.
//
// Aggregate counters (Stats, QueueStats, Waiting) remain exact regardless
// of sampling; consumers that need exact totals poll those instead of
// counting events (that is what internal/obs does for its gauges).
//
// Tracer implementations MUST NOT block and MUST NOT call back into the
// moderator: events are delivered while the admission domain's mutex is
// held, which is also what serializes them — events of one domain arrive
// in admission order.

import (
	"sync/atomic"

	"repro/internal/aspect"
)

// TraceOp identifies which lifecycle step produced a TraceEvent.
type TraceOp uint8

// Lifecycle steps, in the order they occur for one invocation.
const (
	// TraceTicket: a sticky wait ticket was issued on the first Block.
	TraceTicket TraceOp = iota + 1
	// TraceVerdict: one precondition was evaluated. Nanos is the hook's
	// latency; Verdict carries its decision.
	TraceVerdict
	// TracePark: the caller is about to park on a wait queue. Depth is
	// the queue depth including this caller.
	TracePark
	// TraceWake: a parked caller resumed. Nanos is the wait duration;
	// Err is set when the wait was abandoned (context cancelled).
	TraceWake
	// TraceAdmit: pre-activation fully admitted the invocation. Nanos is
	// the total pre-activation latency; Aspects the number admitted.
	TraceAdmit
	// TraceAbort: pre-activation rejected the invocation. Nanos is the
	// total pre-activation latency; Err the cause.
	TraceAbort
	// TracePost: one postaction ran. Nanos is the hook's latency.
	TracePost
	// TraceComplete: post-activation finished (the receipt's aspects all
	// ran). Nanos is the total post-activation latency; Err carries the
	// method body's error, if any.
	TraceComplete
	// TraceAspectPre, TraceAspectPost, TraceAspectCancel are not emitted
	// by the moderator itself: they are reserved for aspects that record
	// admission events through the normal aspect-bank path (the obs
	// AuditAspect), so both delivery routes share one event vocabulary.
	TraceAspectPre
	TraceAspectPost
	TraceAspectCancel
)

// String returns the event name used in dumps and metrics labels.
func (op TraceOp) String() string {
	switch op {
	case TraceTicket:
		return "ticket"
	case TraceVerdict:
		return "verdict"
	case TracePark:
		return "park"
	case TraceWake:
		return "wake"
	case TraceAdmit:
		return "admit"
	case TraceAbort:
		return "abort"
	case TracePost:
		return "post"
	case TraceComplete:
		return "complete"
	case TraceAspectPre:
		return "aspect-pre"
	case TraceAspectPost:
		return "aspect-post"
	case TraceAspectCancel:
		return "aspect-cancel"
	default:
		return "unknown"
	}
}

// TraceEvent is one admission lifecycle event. Fields that do not apply to
// an op are zero.
type TraceEvent struct {
	Op        TraceOp
	Component string
	Method    string
	// Domain identifies the admission domain the event belongs to.
	// Events with equal Domain are delivered in order. Domain 0 is
	// reserved for events emitted outside any domain (aspect-path
	// events).
	Domain     uint64
	Layer      string
	Aspect     string
	Kind       aspect.Kind
	Verdict    aspect.Verdict
	Invocation uint64
	Ticket     uint64
	// Depth is the wait-queue depth at a park, including the parker.
	Depth int
	// Aspects is the number of admitted aspects on a TraceAdmit.
	Aspects int
	// Nanos is the op-specific duration (see the op docs).
	Nanos int64
	Err   string
}

// Tracer receives admission lifecycle events. See the package notes above
// for the delivery contract (non-blocking, in-order per domain, sampled).
// Events carry values only, the invocation by its ID: the record itself is
// valid only until its call returns (see aspect.Invocation).
type Tracer interface {
	// Trace delivers one event. It must not block and must not call back
	// into the moderator that delivered it.
	Trace(ev TraceEvent)
	// SampleEvery returns N: one in every N invocations per admission
	// domain is traced in detail. Values <= 1 trace every invocation.
	// It is consulted once, when the tracer is installed.
	SampleEvery() int
}

// tracerBox pins the tracer together with its sampling rate (read once at
// install time) behind one atomic pointer.
type tracerBox struct {
	t     Tracer
	every uint64
}

// domainSeq numbers admission domains process-wide so trace consumers can
// shard their buffers the same way the moderator shards its locks.
var domainSeq atomic.Uint64

// SetTracer installs (or, with nil, removes) the moderator's tracer. The
// tracer's SampleEvery is read once here; install a new tracer to change
// the rate. Safe to call at any time, including under traffic: in-flight
// invocations finish under the tracer they started with at pre-activation
// (an invocation never mixes tracers between its admit and its receipt).
func (m *Moderator) SetTracer(t Tracer) {
	m.tracer.Store(newTracerBox(t))
}

// SetTracer installs (or removes) the reference moderator's tracer, with
// the same contract as Moderator.SetTracer.
func (r *Reference) SetTracer(t Tracer) {
	r.tracer.Store(newTracerBox(t))
}

func newTracerBox(t Tracer) *tracerBox {
	if t == nil {
		return nil
	}
	every := uint64(1)
	if n := t.SampleEvery(); n > 1 {
		every = uint64(n)
	}
	return &tracerBox{t: t, every: every}
}

// invTrace is one invocation's pinned tracing decision, shared by the
// sharded Moderator and the Reference so both apply the same gating rule:
//
//   - exact ops — ticket issue, park, wake — are emitted for EVERY
//     invocation while a tracer is installed. Parking costs a scheduler
//     round-trip anyway, and complete wait-duration data is the headline
//     observability payload, so these are never sampled out.
//   - detail ops — verdicts, admits, aborts, postactions, completions, and
//     the clock reads that time them — are emitted only for sampled-in
//     invocations (one in SampleEvery per admission domain).
//
// The zero value means tracing is off: both predicates return false.
type invTrace struct {
	t       Tracer
	sampled bool
}

// exact reports whether always-exact ops (ticket/park/wake) are emitted.
func (g invTrace) exact() bool { return g.t != nil }

// detail reports whether sampled per-invocation detail is emitted.
func (g invTrace) detail() bool { return g.sampled }

// gate decides whether one invocation carries full trace detail: nil box
// means tracing is off; otherwise one in `every` invocations of the
// domain-local tick is sampled in.
func (b *tracerBox) gate(tick *atomic.Uint64) invTrace {
	if b == nil {
		return invTrace{}
	}
	if b.every <= 1 {
		return invTrace{t: b.t, sampled: true}
	}
	return invTrace{t: b.t, sampled: tick.Add(1)%b.every == 0}
}

// completeEvent emits the post-activation receipt, carrying the method
// body's recorded error.
func completeEvent(tr Tracer, component string, inv *aspect.Invocation, domain uint64, nanos int64) {
	ev := TraceEvent{Op: TraceComplete, Component: component, Method: inv.Method(),
		Domain: domain, Invocation: inv.ID(), Nanos: nanos}
	if err := inv.Err(); err != nil {
		ev.Err = err.Error()
	}
	tr.Trace(ev)
}
