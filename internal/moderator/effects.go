package moderator

// Effect capture. An EffectSink installed with SetEffectSink receives one
// callback per successfully completed invocation — the replication hook of
// the distributed admission plane's state handoff (internal/statesync).
// The sink fires at post-action time on EVERY completion route: the pure
// lock-free fast path, the optimistic guarded path, and the mutex path all
// pass through the top of Postactivation, where the sink is consulted with
// one atomic pointer load and a branch — the same disabled-cost discipline
// as the tracer and the admit hook, so the hot path stays lock-free.
//
// Invocations whose method body recorded an error are not delivered: a
// failed body left no functional effect to replicate. (A body that panics
// past its SetResult is indistinguishable from success here; components
// guarded by the plane record outcomes before returning, as proxy.Call
// does.)
//
// EffectSink implementations MUST NOT block and MUST NOT call back into
// the moderator: the callback runs on the caller's completion path, before
// wake fan-out. The invocation is valid only until its call returns, on
// every route (see aspect.Invocation); sinks keep the method name and the
// args slice (which the caller no longer mutates), never the *Invocation.

import "repro/internal/aspect"

// EffectSink receives completed invocations for effect replication.
type EffectSink interface {
	// Effect delivers one successfully completed invocation. It must not
	// block, must not call back into the moderator that delivered it, and
	// must not keep inv past its return (see aspect.Invocation).
	Effect(inv *aspect.Invocation)
}

// effectBox pins the sink behind one atomic pointer (nil box = disabled).
type effectBox struct{ s EffectSink }

// SetEffectSink installs (or, with nil, removes) the completion sink.
// Safe to call at any time, including under traffic.
func (m *Moderator) SetEffectSink(s EffectSink) {
	if s == nil {
		m.effects.Store(nil)
		return
	}
	m.effects.Store(&effectBox{s: s})
}
