// Package aspect defines the core abstractions of the Aspect Moderator
// framework: aspects, the verdicts their preconditions return, the concern
// taxonomy (kinds), and the invocation join-point record that flows through
// a guarded method call.
//
// An Aspect captures one cross-cutting concern (synchronization, scheduling,
// authentication, ...) for one participating method of a functional
// component. Its Precondition is evaluated during the pre-activation phase
// of a method invocation and yields a Verdict: the call proceeds (Resume),
// the caller parks on a wait queue until a post-activation notification
// (Block), or the call fails (Abort). Its Postaction runs during the
// post-activation phase, after the method body has executed.
//
// Aspects are passive: they are driven by a moderator, which guarantees that
// Precondition, Postaction, and Cancel for all aspects of one admission
// domain — one participating method, or one explicitly declared method
// group — are executed under mutual exclusion: either the domain's
// admission lock, or (for uncontended admissions on an
// optimistic-eligible plan) the domain's guard cell, which every
// guard-state access — locked or optimistic — holds. The two are never
// held by different hook invocations at once, so aspect implementations
// need no internal locking for state that is only touched from those
// hooks, provided every method the state spans belongs to the same
// domain. An aspect that implements Waker with a non-empty wake list has
// its methods grouped automatically; wiring code can also declare groups
// with the moderator's GroupMethods.
package aspect

import (
	"errors"
	"fmt"
)

// Verdict is the result of evaluating an aspect's precondition during the
// pre-activation phase of a method invocation.
type Verdict int

const (
	// Resume admits the invocation: this aspect's constraints are
	// satisfied and any admission bookkeeping has been performed.
	Resume Verdict = iota + 1
	// Block parks the caller on the method's wait queue. The moderator
	// re-evaluates the enclosing layer's preconditions after a
	// post-activation notification.
	Block
	// Abort rejects the invocation. The moderator unwinds every aspect
	// admitted so far (calling Cancel on those that implement Canceler)
	// and surfaces ErrAborted, or the error the aspect recorded on the
	// invocation via SetErr.
	Abort
)

// String returns the lower-case name of the verdict.
func (v Verdict) String() string {
	switch v {
	case Resume:
		return "resume"
	case Block:
		return "block"
	case Abort:
		return "abort"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Valid reports whether v is one of the three defined verdicts.
func (v Verdict) Valid() bool {
	return v == Resume || v == Block || v == Abort
}

// Kind identifies the concern dimension an aspect belongs to. Together with
// the participating method name it forms the coordinates of the aspect bank:
// the two-dimensional (method x kind) composition structure of the paper.
//
// Kind is an open, string-based taxonomy: the constants below cover the
// concerns the paper names, and applications may introduce their own kinds.
type Kind string

// Concern kinds named by the paper.
const (
	KindSynchronization Kind = "synchronization"
	KindScheduling      Kind = "scheduling"
	KindAuthentication  Kind = "authentication"
	KindAuthorization   Kind = "authorization"
	KindFaultTolerance  Kind = "fault-tolerance"
	KindAudit           Kind = "audit"
	KindMetrics         Kind = "metrics"
)

// Validate reports an error if the kind is empty.
func (k Kind) Validate() error {
	if k == "" {
		return errors.New("aspect: empty kind")
	}
	return nil
}

// ErrAborted is the sentinel error surfaced when a precondition returns
// Abort without recording a more specific cause on the invocation.
var ErrAborted = errors.New("aspect: invocation aborted")

// Aspect is a first-class representation of one concern attached to one
// participating method.
//
// The moderator invokes Precondition during pre-activation and Postaction
// during post-activation, both while holding the component's admission lock.
// A Precondition that performs admission bookkeeping (reserving a slot,
// incrementing an active counter) must do so before returning Resume, and
// should implement Canceler to undo that bookkeeping if a later aspect
// aborts or blocks the same invocation.
//
// Every hook receives an invocation that is valid only until its call
// returns (see Invocation): an aspect keeps values read from it, never the
// pointer.
type Aspect interface {
	// Name identifies the aspect instance for diagnostics and auditing.
	Name() string
	// Kind is the concern dimension this aspect occupies in the bank.
	Kind() Kind
	// Precondition validates (and, on success, records) admission of the
	// invocation. It must be quick and must not block internally: to
	// delay a caller it returns Block and lets the moderator park it.
	Precondition(inv *Invocation) Verdict
	// Postaction updates aspect state after the method body has run.
	// It may inspect the invocation's result and error.
	Postaction(inv *Invocation)
}

// Canceler is implemented by aspects whose Precondition has side effects
// that must be rolled back when a later aspect blocks or aborts the same
// invocation. Cancel is called in reverse admission order, under the
// admission lock, exactly once per successful Precondition that did not
// reach Postaction.
type Canceler interface {
	Cancel(inv *Invocation)
}

// Abandoner is implemented by aspects whose Precondition records state
// even when returning Block (a barrier arrival, a declared write intent).
// When a caller blocked by this aspect abandons the wait — its context is
// cancelled — the moderator calls Abandon under the admission lock so the
// aspect can retract what the blocked caller had registered. It is not
// called when the caller is woken normally (the re-evaluated Precondition
// sees the state instead).
type Abandoner interface {
	Abandon(inv *Invocation)
}

// NonBlocking is implemented by aspects that declare their Precondition
// never returns Block and that none of their hooks touch cross-invocation
// guard state (state shared between invocations that the admission lock
// would otherwise serialize). Stateless authentication checks, passive
// audit/metrics recorders, and aspects whose state is internally
// synchronized (atomics, their own mutex) qualify; capacity guards,
// semaphores, and barriers do not.
//
// The declaration is a capability grant: when every aspect guarding a
// method is NonBlocking, the moderator may evaluate the whole stack on a
// lock-free fast path — no admission mutex, no wake broadcast — because a
// stack that cannot block and touches no guard state can neither park a
// caller nor unblock one. NonBlocking preconditions may still return
// Abort (rejecting is not blocking); Cancel hooks run as usual during
// rollback.
//
// NonBlocking is consulted when the composition snapshot is published
// (registration, layer churn, grouping), not per invocation. Returning
// Block from a Precondition that declared NonBlocking is a contract
// violation: the fast path rejects the invocation with an error instead
// of parking the caller.
type NonBlocking interface {
	// NonBlocking reports whether the aspect honours the contract above.
	NonBlocking() bool
}

// Waker is implemented by aspects whose Postaction changes state that
// blocked callers of other methods may be waiting on. Wakes returns the
// names of the methods whose wait queues should be notified after this
// aspect's Postaction runs. A non-empty wake list also declares an
// admission-domain group: the registered method and every listed method are
// merged into one domain, which is what makes the aspect's shared state
// safe without internal locking. If no admitted aspect of an invocation
// declares a non-empty wake list, the moderator conservatively broadcasts
// to every queue of the component (an empty list does not count — a
// passive aspect must not suppress the broadcast and strand another
// guard's waiters).
type Waker interface {
	Wakes() []string
}

// Func adapts plain functions into an Aspect. Zero-value hooks are treated
// as no-ops (Pre defaults to Resume).
type Func struct {
	AspectName string
	AspectKind Kind
	Pre        func(inv *Invocation) Verdict
	Post       func(inv *Invocation)
	CancelFn   func(inv *Invocation)
	AbandonFn  func(inv *Invocation)
	WakeList   []string
	// NonBlockingFlag opts the adapter into the NonBlocking contract.
	// Set it only when Pre never returns Block and no hook touches
	// cross-invocation guard state; see the NonBlocking interface.
	NonBlockingFlag bool
}

var (
	_ Aspect      = (*Func)(nil)
	_ Canceler    = (*Func)(nil)
	_ Waker       = (*Func)(nil)
	_ Abandoner   = (*Func)(nil)
	_ NonBlocking = (*Func)(nil)
)

// Name implements Aspect.
func (f *Func) Name() string {
	if f.AspectName == "" {
		return "anonymous"
	}
	return f.AspectName
}

// Kind implements Aspect.
func (f *Func) Kind() Kind { return f.AspectKind }

// Precondition implements Aspect.
func (f *Func) Precondition(inv *Invocation) Verdict {
	if f.Pre == nil {
		return Resume
	}
	return f.Pre(inv)
}

// Postaction implements Aspect.
func (f *Func) Postaction(inv *Invocation) {
	if f.Post != nil {
		f.Post(inv)
	}
}

// Cancel implements Canceler.
func (f *Func) Cancel(inv *Invocation) {
	if f.CancelFn != nil {
		f.CancelFn(inv)
	}
}

// Abandon implements Abandoner.
func (f *Func) Abandon(inv *Invocation) {
	if f.AbandonFn != nil {
		f.AbandonFn(inv)
	}
}

// Wakes implements Waker.
func (f *Func) Wakes() []string { return f.WakeList }

// NonBlocking implements NonBlocking; it reports the adapter's flag.
func (f *Func) NonBlocking() bool { return f.NonBlockingFlag }

// New returns a Func aspect with the given name, kind, and hooks. Either
// hook may be nil.
func New(name string, kind Kind, pre func(*Invocation) Verdict, post func(*Invocation)) *Func {
	return &Func{AspectName: name, AspectKind: kind, Pre: pre, Post: post}
}
