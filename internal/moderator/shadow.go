// Shadow admission: the differential oracle as a production safety net.
//
// The repo's strongest correctness asset is the Reference moderator — a
// verbatim port of the paper's single-mutex admission semantics that the
// differential oracle replays seeded schedules against in tests. Shadow
// mode carries that oracle into a running process: a sampled fraction of
// live admissions is handed to a background worker (never-blocking
// channel handoff, dropping on overflow exactly like the obs trace
// rings), which replays each sample through a private Reference instance
// and through an independent re-resolution of the composition snapshot,
// and counts divergences:
//
//   - stack: the aspect stack the compiled plan admitted differs from
//     the stack independently re-resolved from the same snapshot's layer
//     banks — a plan-compiler defect.
//   - wake: the plan's precomputed wake-target union differs from the
//     union recomputed from the aspects' Wakes() declarations.
//   - verdict: the live path admitted an invocation the Reference
//     semantics abort, or aborted one the Reference admits.
//
// # Replay soundness
//
// The structural comparisons (stack, wake) are exact: both sides derive
// from the same immutable snapshot, so any difference is a real defect.
// Verdict replay is exact for aspects whose verdict is a function of the
// invocation alone, and ADVISORY for guards whose verdict depends on
// guard state that may have changed between the sampled admission and
// the replay — the live invocation itself may have consumed the capacity
// it was admitted under. Replay therefore runs with a pre-cancelled
// context: a guard that votes Block makes the Reference return a
// cancelled-wait error instead of parking the worker, and such samples
// are counted inconclusive rather than divergent (a Block vote under
// later state is not evidence the earlier admit was wrong). Replay
// relies on the framework's own rollback contract — Precondition
// bookkeeping undone by Cancel, Block bookkeeping undone by Abandon —
// to leave guard state unperturbed: every replayed admission is
// immediately cancelled, never post-activated, and the whole replay runs
// under the sample's admission-domain mutex so live hooks never observe
// a half-replayed guard. Observational aspects may record a sampled
// duplicate (an audit line, a metrics tick); that is the price of
// replaying real hooks and is bounded by the sampling rate.
package moderator

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/aspect"
)

// DefaultShadowSampleEvery is the default sampling stride: one admission
// in every N per admission domain is replayed.
const DefaultShadowSampleEvery = 64

// DefaultShadowBuffer is the default capacity of the handoff channel
// between the admission path and the replay worker.
const DefaultShadowBuffer = 256

// DefaultShadowDivergenceLog bounds the recent-divergence list kept for
// introspection.
const DefaultShadowDivergenceLog = 64

// ShadowStats are cumulative counters for one shadow engine.
type ShadowStats struct {
	// Sampled admissions selected by the per-domain stride.
	Sampled uint64 `json:"sampled"`
	// Dropped samples the worker could not accept (full buffer). The
	// handoff never blocks the admission path.
	Dropped uint64 `json:"dropped"`
	// Replayed samples the worker processed.
	Replayed uint64 `json:"replayed"`
	// Agreements: replays whose predicted verdict matched the live one.
	Agreements uint64 `json:"agreements"`
	// Inconclusive: replays where a guard voted Block under
	// possibly-changed state; not evidence either way.
	Inconclusive uint64 `json:"inconclusive"`
	// VerdictDivergences: live admit with predicted abort, or vice versa.
	VerdictDivergences uint64 `json:"verdict_divergences"`
	// StackDivergences: compiled plan stack != independently resolved stack.
	StackDivergences uint64 `json:"stack_divergences"`
	// WakeDivergences: precomputed wake union != recomputed wake union.
	WakeDivergences uint64 `json:"wake_divergences"`
}

// Divergences sums the three divergence classes.
func (s ShadowStats) Divergences() uint64 {
	return s.VerdictDivergences + s.StackDivergences + s.WakeDivergences
}

// ShadowDivergence describes one detected divergence for introspection.
type ShadowDivergence struct {
	// Class is "verdict", "stack", or "wake".
	Class  string `json:"class"`
	Method string `json:"method"`
	// LiveAdmitted is the live admission outcome of the sample.
	LiveAdmitted bool `json:"live_admitted"`
	// Predicted is the replay's outcome ("admit", "abort"); empty for
	// structural classes.
	Predicted string `json:"predicted,omitempty"`
	Detail    string `json:"detail"`
}

// shadowSample is one sampled admission outcome. The snapshot and plan
// pointers are immutable, so the worker reads them without coordination.
type shadowSample struct {
	cs       *compState
	plan     *compiledPlan
	args     []any
	priority int
	admitted bool
}

// Shadow replays sampled live admissions against the Reference semantics
// off the hot path. Construct with NewShadow, install with
// Moderator.SetShadow, and Start the worker; Stop drains and retires it.
type Shadow struct {
	m   *Moderator
	ref *Reference
	// cancelled is the pre-cancelled context every replayed invocation
	// carries, so a Block vote returns instead of parking the worker.
	cancelled context.Context

	every  uint64
	logCap int
	ch     chan shadowSample
	stop   chan struct{}
	done   chan struct{}

	started  atomic.Bool
	stopOnce sync.Once

	sampled      atomic.Uint64
	dropped      atomic.Uint64
	replayed     atomic.Uint64
	agreements   atomic.Uint64
	inconclusive atomic.Uint64
	verdictDiv   atomic.Uint64
	stackDiv     atomic.Uint64
	wakeDiv      atomic.Uint64

	mu     sync.Mutex
	recent []ShadowDivergence
}

// ShadowOption configures a Shadow.
type ShadowOption func(*Shadow)

// WithShadowSampleEvery sets the per-domain sampling stride: one
// admission in every n is replayed (minimum 1 = every admission).
func WithShadowSampleEvery(n int) ShadowOption {
	return func(s *Shadow) {
		if n < 1 {
			n = 1
		}
		s.every = uint64(n)
	}
}

// WithShadowBuffer sets the handoff channel capacity (minimum 1).
func WithShadowBuffer(n int) ShadowOption {
	return func(s *Shadow) {
		if n < 1 {
			n = 1
		}
		s.ch = make(chan shadowSample, n)
	}
}

// WithShadowDivergenceLog bounds the recent-divergence list (minimum 1).
func WithShadowDivergenceLog(n int) ShadowOption {
	return func(s *Shadow) {
		if n < 1 {
			n = 1
		}
		s.logCap = n
	}
}

// NewShadow creates a shadow engine for the moderator. The engine is
// inert until Start is called and SetShadow installs it.
func NewShadow(m *Moderator, opts ...ShadowOption) *Shadow {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Shadow{
		m:         m,
		ref:       NewReference(m.Name()+"#shadow", WithWakePolicy(m.WakePolicy()), WithWakeMode(m.WakeMode())),
		cancelled: ctx,
		every:     DefaultShadowSampleEvery,
		logCap:    DefaultShadowDivergenceLog,
		ch:        make(chan shadowSample, DefaultShadowBuffer),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// SetShadow installs (or, with nil, removes) the shadow engine. With no
// engine installed the admission path pays one atomic load.
func (m *Moderator) SetShadow(s *Shadow) { m.shadow.Store(s) }

// Shadow returns the installed shadow engine, or nil.
func (m *Moderator) Shadow() *Shadow { return m.shadow.Load() }

// Component returns the name of the moderator the engine shadows.
func (s *Shadow) Component() string { return s.m.Name() }

// SampleEvery returns the per-domain sampling stride.
func (s *Shadow) SampleEvery() int { return int(s.every) }

// Start launches the replay worker. Starting twice is a no-op.
func (s *Shadow) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.run()
}

// Stop retires the worker after it drains already-buffered samples, and
// waits for it to exit. The engine should be removed with SetShadow(nil)
// first (or the moderator quiesced); samples offered after Stop are
// dropped once the buffer fills, never blocking the admission path.
func (s *Shadow) Stop() {
	if !s.started.Load() {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Stats returns a snapshot of the engine's counters.
func (s *Shadow) Stats() ShadowStats {
	return ShadowStats{
		Sampled:            s.sampled.Load(),
		Dropped:            s.dropped.Load(),
		Replayed:           s.replayed.Load(),
		Agreements:         s.agreements.Load(),
		Inconclusive:       s.inconclusive.Load(),
		VerdictDivergences: s.verdictDiv.Load(),
		StackDivergences:   s.stackDiv.Load(),
		WakeDivergences:    s.wakeDiv.Load(),
	}
}

// Divergences returns a copy of the recent-divergence list, oldest first.
func (s *Shadow) Divergences() []ShadowDivergence {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ShadowDivergence(nil), s.recent...)
}

// observe is called from the admission path (possibly under a domain
// mutex) with a sampled-or-not decision still to make. It must never
// block: the handoff is a buffered-channel send with a drop default,
// mirroring the obs trace rings' TryLock-drop contract.
func (s *Shadow) observe(cs *compState, plan *compiledPlan, inv *aspect.Invocation, admitted bool) {
	if plan.d.shadowTick.Add(1)%s.every != 0 {
		return
	}
	s.sampled.Add(1)
	smp := shadowSample{
		cs:       cs,
		plan:     plan,
		priority: inv.Priority,
		admitted: admitted,
	}
	if n := inv.NumArgs(); n > 0 {
		smp.args = append(make([]any, 0, n), inv.Args()...)
	}
	select {
	case s.ch <- smp:
	default:
		s.dropped.Add(1)
	}
}

func (s *Shadow) run() {
	defer close(s.done)
	for {
		select {
		case smp := <-s.ch:
			s.replay(smp)
		case <-s.stop:
			for {
				select {
				case smp := <-s.ch:
					s.replay(smp)
				default:
					return
				}
			}
		}
	}
}

func (s *Shadow) record(div ShadowDivergence) {
	s.mu.Lock()
	if len(s.recent) >= s.logCap {
		copy(s.recent, s.recent[1:])
		s.recent = s.recent[:len(s.recent)-1]
	}
	s.recent = append(s.recent, div)
	s.mu.Unlock()
}

// replay checks one sampled admission three ways: the plan's aspect stack
// and wake union against an independent re-resolution of the snapshot,
// and the live verdict against the Reference admission semantics.
func (s *Shadow) replay(smp shadowSample) {
	s.replayed.Add(1)
	plan := smp.plan
	method := plan.method

	// Independent re-resolution of the layer stack from the very snapshot
	// the live admission loaded.
	layers := smp.cs.layers
	var names []string
	var wakes []string
	for _, l := range layers {
		for _, e := range l.snap.ForMethod(method) {
			names = append(names, l.name+"/"+e.Aspect.Name())
			for _, t := range wakeSpan(e.Aspect) {
				if !containsString(wakes, t) {
					wakes = append(wakes, t)
				}
			}
		}
	}
	sort.Strings(wakes)

	planNames := make([]string, 0, len(plan.entries))
	for i := range plan.entries {
		planNames = append(planNames, plan.entries[i].layer+"/"+plan.entries[i].a.Name())
	}
	if !equalStrings(names, planNames) {
		s.stackDiv.Add(1)
		s.record(ShadowDivergence{
			Class: "stack", Method: method, LiveAdmitted: smp.admitted,
			Detail: "compiled plan stack " + joinNames(planNames) + " != resolved stack " + joinNames(names),
		})
	}
	if !equalStrings(wakes, plan.wakeTargets) {
		s.wakeDiv.Add(1)
		s.record(ShadowDivergence{
			Class: "wake", Method: method, LiveAdmitted: smp.admitted,
			Detail: "compiled wake union " + joinNames(plan.wakeTargets) + " != recomputed union " + joinNames(wakes),
		})
	}

	// Verdict replay through the Reference semantics. The replayed
	// invocation carries a pre-cancelled context (a Block vote returns a
	// cancelled-wait error instead of parking the worker) and runs under
	// the sample's admission-domain mutex AND guard cell, so it is
	// serialized with live hooks on the same guard state whichever path
	// admitted them. A predicted admission is immediately
	// rolled back via the Cancel contract; Postactivation never runs.
	s.ref.comp.Store(&compState{layers: layers})
	inv := aspect.NewInvocation(s.cancelled, s.m.Name(), method, smp.args)
	inv.Priority = smp.priority
	d := plan.d
	d.mu.Lock()
	// The optimistic path runs live guard hooks under the domain's guard
	// cell alone (optimistic.go), so the mutex by itself no longer
	// serializes the replay against them: take the cell too (strictly
	// inside the mutex, same ordering as the mutex admission path).
	d.cell.lock()
	adm, err := s.ref.Preactivation(inv)
	if err == nil && adm != nil {
		cancelReverse(adm.admitted, inv)
	}
	d.cell.unlock()
	d.mu.Unlock()

	var predicted string
	switch {
	case err == nil:
		predicted = "admit"
	case errors.Is(err, context.Canceled):
		// A guard voted Block under state that may have changed since the
		// sample (the live admission itself may hold the capacity).
		s.inconclusive.Add(1)
		return
	default:
		predicted = "abort"
	}
	live := "abort"
	if smp.admitted {
		live = "admit"
	}
	if predicted == live {
		s.agreements.Add(1)
		return
	}
	s.verdictDiv.Add(1)
	s.record(ShadowDivergence{
		Class: "verdict", Method: method, LiveAdmitted: smp.admitted, Predicted: predicted,
		Detail: "live admission outcome " + live + ", reference semantics predict " + predicted,
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinNames(names []string) string {
	if len(names) == 0 {
		return "[]"
	}
	out := "[" + names[0]
	for _, n := range names[1:] {
		out += " " + n
	}
	return out + "]"
}
