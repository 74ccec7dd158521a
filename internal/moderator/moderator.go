// Package moderator implements the aspect moderator of the framework: the
// object that coordinates functional and aspectual behaviour by evaluating
// every registered aspect's precondition before a participating method runs
// (pre-activation) and every postaction after it completes
// (post-activation), parking blocked callers on per-method wait queues in
// between (the paper's Figures 3, 10, 11).
//
// # Layers
//
// The paper extends a running system with new concerns by subclassing the
// moderator and factory (ExtendedAspectModerator, Figures 13-18): the new
// concern's preconditions run before the existing ones and its postactions
// after them. Go has no implementation inheritance, so the moderator models
// the same semantics with layers: an ordered list of aspect banks,
// outermost first. Pre-activation admits layers outermost to innermost;
// post-activation runs innermost to outermost — the onion ordering
// auth-pre, sync-pre, method, sync-post, auth-post of the paper's Figure 14.
//
// # Admission semantics
//
// Within one layer, preconditions run in registration order. A layer admits
// atomically: if some aspect returns Block after earlier aspects of the
// same layer already admitted (and possibly reserved resources), those
// admissions are rolled back via Cancel before the caller parks, and the
// whole layer re-evaluates after a wake-up. Abort rolls back everything
// admitted so far — across layers — and surfaces an error. Admitted outer
// layers stay admitted while an inner layer blocks, exactly as the paper's
// authentication admission holds while synchronization blocks.
//
// # Admission domains
//
// The paper's moderator serializes all precondition, postaction, and
// cancel hooks under one admission mutex. That is correct but it is a
// scalability wall: callers of unrelated participating methods contend on
// the same lock. This moderator shards admission into per-method
// *admission domains*: each participating method (or explicit method
// group) owns a mutex, its wait queues, its sticky-ticket sequence, and
// its admission counters. Hooks of an invocation run under the domain of
// the invoked method only; callers of methods in different domains never
// contend. The single-mutex semantics are retained verbatim in Reference
// (reference.go), which the differential oracle replays against.
//
// Aspects whose hooks share guard state across several methods (a bounded
// buffer's put/get, a mutex spanning open/close) need all those methods in
// ONE domain — that is what makes "guard state needs no locking of its
// own" still true. Two mechanisms arrange it:
//
//   - automatically: when a registered aspect implements aspect.Waker with
//     a non-empty wake list, the moderator merges the registered method and
//     every wake target into one domain. The wake list of a guard is
//     exactly the span of its shared state, so syncguard and coord aspects
//     group themselves.
//   - explicitly: GroupMethods declares a method group up front; wiring
//     code (internal/apps/*) calls it for every shared guard.
//
// Groups must be declared (and Waker aspects registered) during
// initialization, before the affected methods take concurrent traffic;
// merging a domain that has already admitted or parked callers fails with
// ErrDomainActive.
//
// # Snapshot memory model
//
// Composition state — the layer list together with every layer's bank
// contents — is published as one immutable snapshot behind an
// atomic.Pointer. Mutations (AddLayer, RemoveLayer, RegisterIn,
// Unregister) run under a small admin mutex, rebuild the snapshot, and
// Store it; the Store happens-before any Load that observes it, so a
// reader sees either the whole mutation or none of it. Preactivation
// resolves its plan from one Load (in-flight invocations are immune to
// concurrent re-composition), and Describe reads the very same snapshot —
// it can never observe a layer without the registrations that
// happened-before a later mutation it does observe (no torn reads during
// layer churn). Postactivation does not consult the current composition at
// all: it runs the postactions of the Admission receipt, i.e. the aspects
// captured at pre-activation time, so receipts stay valid across a
// concurrent RemoveLayer.
package moderator

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/bank"
	"repro/internal/waitq"
)

// BaseLayer is the name of the layer every moderator starts with.
const BaseLayer = "base"

// Position selects where AddLayer places a new layer relative to the
// existing ones.
type Position int

const (
	// Outermost layers run their preconditions first and postactions
	// last. New concerns added to a running system (the paper's
	// authentication extension) are typically outermost.
	Outermost Position = iota + 1
	// Innermost layers run their preconditions last and postactions
	// first.
	Innermost
)

// WakeMode selects how post-activation releases blocked callers.
type WakeMode int

const (
	// WakeBroadcast wakes every caller blocked on the methods a
	// post-activation touches; each re-evaluates its guards. Always safe;
	// this is the default.
	WakeBroadcast WakeMode = iota + 1
	// WakeSingle wakes one caller per notification, chosen by the wait
	// queue's policy (FIFO, LIFO, priority). Use when each completed
	// invocation frees capacity for exactly one waiter (semaphore-like
	// guards); with heterogeneous guards it can strand waiters: the woken
	// caller may be blocked by a different guard than the one the
	// completion satisfied, re-park, and consume the only wake-up while
	// an admissible waiter stays parked (see wakepolicy_test.go).
	WakeSingle
)

// Stats are cumulative counters for one moderator, summed over its
// admission domains. Every counter is maintained atomically; Stats is safe
// to call at any time from any goroutine.
type Stats struct {
	Admissions  uint64 // invocations fully admitted by pre-activation
	Blocks      uint64 // times a caller parked on a wait queue
	Aborts      uint64 // invocations rejected during pre-activation
	Completions uint64 // post-activations performed
}

// ErrLayerExists is returned by AddLayer for a duplicate layer name.
var ErrLayerExists = errors.New("moderator: layer already exists")

// ErrNoSuchLayer is returned when a named layer is not present.
var ErrNoSuchLayer = errors.New("moderator: no such layer")

// ErrDomainActive is returned by GroupMethods (and, inside a wake-overlap
// *InterferenceError, by RegisterIn's automatic grouping) when the
// requested group would merge two admission domains that have both
// already seen traffic. Declare groups during
// initialization, before the affected methods are invoked concurrently.
var ErrDomainActive = errors.New("moderator: admission domain already active")

// options carries the configuration shared by Moderator and Reference.
type options struct {
	policy   waitq.Policy
	wakeMode WakeMode
}

// Option configures a Moderator (or a Reference).
type Option func(*options)

// WithWakePolicy sets the wake policy of the moderator's wait queues
// (default FIFO). The policy selects which blocked caller wakes first in
// WakeSingle mode.
func WithWakePolicy(p waitq.Policy) Option {
	return func(o *options) { o.policy = p }
}

// WithWakeMode sets how post-activation releases blocked callers
// (default WakeBroadcast).
func WithWakeMode(w WakeMode) Option {
	return func(o *options) { o.wakeMode = w }
}

func buildOptions(opts []Option) options {
	o := options{policy: waitq.FIFO, wakeMode: WakeBroadcast}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

type qkey struct {
	method string
	kind   aspect.Kind
}

// Admission is the receipt of a successful pre-activation: the aspects
// admitted, in admission order. The caller passes it back to
// Postactivation so the exact composition the invocation was admitted
// under — not whatever the bank holds by then — runs its postactions. The
// receipt holds the aspect objects themselves, so it stays valid even if
// the layers they came from are removed while the method body runs.
//
// Sharded-moderator receipts are pooled: Postactivation recycles them, so
// a receipt must not be retained or inspected after it has been passed
// back.
type Admission struct {
	admitted []aspect.Aspect
	// plan is the compiled plan the receipt was admitted under (sharded
	// moderator only; nil for Reference receipts). A successful sharded
	// admission always admits the whole plan, so admitted aliases
	// plan.aspects and the receipt allocates nothing.
	plan *compiledPlan
	// d caches the admission domain the receipt was issued under (sharded
	// moderator only), sparing Postactivation the domain-table lookup.
	d *domain
	// traced pins the pre-activation sampling decision so one invocation
	// is traced (or not) consistently across both phases.
	traced bool
	// fast records that pre-activation ran on the lock-free path, making
	// post-activation eligible for it too (subject to its own re-check).
	fast bool
	// shared marks the plan's immutable fast-path receipt (see
	// compiledPlan.sharedAdm). Shared receipts are never zeroed or pooled.
	shared bool
}

// admissionPool recycles sharded-moderator receipts. Reference receipts
// are never pooled (their admitted slice is built per invocation).
var admissionPool = sync.Pool{New: func() any { return new(Admission) }}

func newAdmission(plan *compiledPlan, d *domain, traced, fast bool) *Admission {
	adm := admissionPool.Get().(*Admission)
	adm.admitted = plan.aspects
	adm.plan = plan
	adm.d = d
	adm.traced = traced
	adm.fast = fast
	return adm
}

// releaseAdmission returns a pooled receipt. Only sharded receipts
// (plan != nil) are recycled; nil and Reference receipts pass through.
func releaseAdmission(adm *Admission) {
	if adm == nil || adm.plan == nil || adm.shared {
		return
	}
	*adm = Admission{}
	admissionPool.Put(adm)
}

// Len returns the number of admitted aspects.
func (a *Admission) Len() int {
	if a == nil {
		return 0
	}
	return len(a.admitted)
}

// Admitter is the surface shared by the sharded Moderator and the
// single-mutex Reference. The differential oracle (moderator_diff_test.go)
// and the in-process tier A/B (tiers_ab_test.go) drive both
// implementations through this interface.
type Admitter interface {
	Name() string
	Register(method string, kind aspect.Kind, a aspect.Aspect) error
	RegisterIn(layerName, method string, kind aspect.Kind, a aspect.Aspect) error
	Unregister(layerName, method string, kind aspect.Kind) (int, error)
	AddLayer(name string, pos Position) error
	RemoveLayer(name string) error
	GroupMethods(methods ...string) error
	Layers() []string
	Describe() []LayerInfo
	Preactivation(inv *aspect.Invocation) (*Admission, error)
	Postactivation(inv *aspect.Invocation, adm *Admission)
	Kick(method string)
	Waiting(method string) int
	Stats() Stats
	QueueStats() map[string]waitq.Stats
}

var (
	_ Admitter = (*Moderator)(nil)
	_ Admitter = (*Reference)(nil)
)

// compLayer is one layer of the published composition snapshot: the
// mutable bank (touched only under the admin mutex) together with the
// bank contents as of the snapshot's publication.
type compLayer struct {
	name string
	bank *bank.Bank
	snap *bank.Snapshot
}

// planEntry is one aspect of a compiled plan, with the layer and bank
// coordinates it was resolved from (for trace events and error messages).
type planEntry struct {
	layer string
	kind  aspect.Kind
	a     aspect.Aspect
}

// planLayer is one layer's contiguous span of plan entries: entries[lo:hi]
// admit (and roll back, and retry) as a unit.
type planLayer struct {
	name   string
	lo, hi int
}

// compiledPlan is the publish-time resolution of one method's guard stack:
// everything Preactivation would otherwise recompute per invocation —
// layer spans, entry list, the admitted-aspect slice the receipt will
// carry, the method's admission domain, the pure classification, and the
// union of the aspects' wake targets. Plans are immutable once published;
// the hot path reaches one with a single snapshot Load and map lookup.
type compiledPlan struct {
	method  string
	entries []planEntry
	// aspects lists every entry's aspect in admission order. A successful
	// admission always admits the whole plan, so receipts alias this slice
	// (prefixes of it name the partially-admitted state during rollback).
	aspects []aspect.Aspect
	layers  []planLayer
	// d is the method's admission domain as of publication. Grouping
	// republishes plans, so d can never go stale relative to the snapshot
	// an invocation loaded.
	d *domain
	// pure means every entry declared aspect.NonBlocking: the stack can
	// never park a caller and touches no cross-invocation guard state, so
	// the lock-free fast path may run it.
	pure bool
	// optimistic means the (impure) stack is eligible for the optimistic
	// guard-cell path: its guard state is confined to its own domain's
	// cell, i.e. every declared wake target maps to the plan's domain.
	// Auto-grouping makes that the common case; a plan whose wake span
	// crosses domains conservatively keeps the mutex path.
	optimistic bool
	// wakeTargets is the sorted, deduplicated union of the entries'
	// non-empty Waker lists; targeted is true when any entry declared one.
	// Precomputing the union is sound because Wakes() lists are static
	// declarations of guard-state span, not per-invocation decisions.
	wakeTargets []string
	targeted    bool
	// sharedAdm is the one receipt every fast-path admission of a pure
	// plan returns. A fast-path receipt carries no per-invocation state —
	// every field is determined by the plan — so all concurrent admissions
	// can share this immutable instance and the fast path never touches
	// the receipt pool. Nil for impure plans.
	sharedAdm *Admission
}

// compState is the immutable composition snapshot: the layer list,
// outermost first, with each layer's bank contents fixed at publication
// time, plus the per-method compiled plans resolved from those contents.
// One atomic Load yields a mutually consistent view of everything.
type compState struct {
	layers []compLayer
	plans  map[string]*compiledPlan
}

func (cs *compState) find(name string) *compLayer {
	for i := range cs.layers {
		if cs.layers[i].name == name {
			return &cs.layers[i]
		}
	}
	return nil
}

// domain is one admission domain: the mutex, wait queues, sticky-ticket
// sequence, guard cell, and counters for one participating method or
// method group. The struct is laid out in cache-line-padded groups so the
// hot synchronization words of one domain do not false-share with each
// other: the mutex (spun on by the parking path), the guard cell (spun on
// by the optimistic path), the admission counters (written on every
// admission), and the reclamation pins (written on every pre-activation)
// each get their own line. padding_test.go audits the offsets.
type domain struct {
	id        uint64
	mu        sync.Mutex
	queues    map[qkey]*waitq.Queue // guarded by mu
	ticketSeq uint64                // guarded by mu

	_ [64]byte // pad: mutex word vs guard cell

	// cell serializes every guard-state access of guarded plans — it is
	// the whole lock the optimistic path takes, and the mutex path
	// acquires it (strictly after mu) around its guard hooks so the two
	// paths exclude each other. See optimistic.go.
	cell guardCell

	_ [64]byte // pad: guard cell vs admission counters

	admissions  atomic.Uint64
	blocks      atomic.Uint64
	aborts      atomic.Uint64
	completions atomic.Uint64

	// traceTick drives per-domain trace sampling (see trace.go).
	traceTick atomic.Uint64

	_ [64]byte // pad: admission counters vs optimistic-path counters

	// Optimistic-path counters (see OptimisticStats, optimistic.go).
	optAdmits    atomic.Uint64
	optCompletes atomic.Uint64
	optParks     atomic.Uint64
	optFallbacks atomic.Uint64
	optConflicts atomic.Uint64

	_ [64]byte // pad: optimistic counters vs reclamation pins

	// pins count in-flight pre-activations by reclamation era slot
	// (era % reclaimSlots); a retired composition snapshot is reclaimed
	// only once its era's slot is quiescent in every domain (reclaim.go).
	pins [reclaimSlots]atomic.Int64

	_ [64]byte // pad: pins vs the next heap object (likely another domain's mutex word)
}

func newDomain() *domain {
	return &domain{id: domainSeq.Add(1), queues: make(map[qkey]*waitq.Queue)}
}

// active reports whether the domain has ever admitted, parked, aborted, or
// completed a caller. Active domains cannot be merged away by grouping.
func (d *domain) active() bool {
	if d.admissions.Load() != 0 || d.blocks.Load() != 0 ||
		d.aborts.Load() != 0 || d.completions.Load() != 0 {
		return true
	}
	d.mu.Lock()
	n := len(d.queues)
	d.mu.Unlock()
	return n > 0
}

// domainTable is the immutable method→domain assignment. byMethod maps
// each method seen so far to its domain; all lists every distinct live
// domain (for Stats, QueueStats, and conservative broadcasts).
type domainTable struct {
	byMethod map[string]*domain
	all      []*domain
}

func (dt *domainTable) clone() *domainTable {
	next := &domainTable{byMethod: make(map[string]*domain, len(dt.byMethod)+1)}
	for m, d := range dt.byMethod {
		next.byMethod[m] = d
	}
	next.all = append([]*domain(nil), dt.all...)
	return next
}

// rebuildAll recomputes the distinct-domain list after a grouping merge
// dropped some domains, preserving the previous relative order.
func (dt *domainTable) rebuildAll(prev []*domain) {
	live := make(map[*domain]bool, len(dt.byMethod))
	for _, d := range dt.byMethod {
		live[d] = true
	}
	dt.all = dt.all[:0]
	for _, d := range prev {
		if live[d] {
			dt.all = append(dt.all, d)
			delete(live, d)
		}
	}
	for d := range live { // domains not in prev (freshly created)
		dt.all = append(dt.all, d)
	}
}

// Moderator coordinates aspect evaluation for one functional component.
// Construct with New.
type Moderator struct {
	name string
	opts options

	// admin serializes composition mutations and domain-table mutations.
	// It is never held while aspect hooks run: the hot path only reads
	// the atomic snapshots below.
	admin   sync.Mutex
	comp    atomic.Pointer[compState]
	domains atomic.Pointer[domainTable]
	tracer  atomic.Pointer[tracerBox]
	// effects, when set, receives every successful completion at
	// post-action time — the state-handoff replication hook (effects.go).
	effects atomic.Pointer[effectBox]

	// reclaimEra numbers composition retirements: it advances once per
	// snapshot superseded, and pre-activations pin the era they run under
	// so retired snapshots can be reclaimed at quiescence (reclaim.go).
	reclaimEra atomic.Uint64
	// retired holds superseded snapshots awaiting quiescence, and
	// reclaimed counts snapshots already released; both guarded by admin.
	retired   []retiredComp
	reclaimed uint64

	// admitHook, when set, is a test-only instrumentation hook called at
	// the optimistic paths' racy windows (see optimistic.go). Reading it
	// costs the hot path one atomic load and a branch, the same gate
	// discipline as the tracer.
	admitHook atomic.Pointer[func(admitPoint, *domain)]

	_ [64]byte // pad: waiters is the hottest cross-domain word

	// waiters counts callers currently parked (or about to park) on any
	// wait queue of this moderator. A parking caller increments it while
	// holding BOTH its domain's mutex and the domain's guard cell, before
	// Wait releases the mutex (and, on the cell-to-mutex upgrade, while
	// holding the cell alone) — so a lock-free reader that observes zero
	// while holding the cell is guaranteed no caller was already parked
	// and none can park before the cell is released: the condition under
	// which skipping the wake fan-out is sound (see acquire, optimistic.go).
	waiters atomic.Int64

	_ [64]byte // pad: trailing, so waiters shares no line with a neighbor
}

// New creates a moderator for the named component with a single base layer.
func New(name string, opts ...Option) *Moderator {
	m := &Moderator{name: name, opts: buildOptions(opts)}
	b := bank.New()
	m.comp.Store(&compState{layers: []compLayer{{name: BaseLayer, bank: b, snap: b.Snapshot()}}})
	m.domains.Store(&domainTable{byMethod: make(map[string]*domain)})
	return m
}

// Name returns the component name the moderator guards.
func (m *Moderator) Name() string { return m.name }

// Stats returns a snapshot of the moderator's counters, summed across its
// admission domains.
func (m *Moderator) Stats() Stats {
	var s Stats
	for _, d := range m.domains.Load().all {
		s.Admissions += d.admissions.Load()
		s.Blocks += d.blocks.Load()
		s.Aborts += d.aborts.Load()
		s.Completions += d.completions.Load()
	}
	return s
}

// Pressure reports the admission pressure a new invocation would face: the
// moderator-wide count of callers parked (or committed to parking) on a
// wait queue. It is one atomic load and advisory — the load-shedding
// watermark input for admission-aware servers (see internal/amrpc).
func (m *Moderator) Pressure() int { return int(m.waiters.Load()) }

// RingStats is retired: the batched-admission ring tier it counted was
// ablated at parity and deleted (EXPERIMENTS.md E21). The type and the
// zero-returning method survive only because the frozen benchmark harness
// (benchmark/workloads.go) still sums these six fields; the next benchmark
// PR removes both together with the moderator.ring_* layer metrics
// (ROADMAP item 11(a)).
type RingStats struct {
	Submitted, Batches, BatchedOps, Parks, FullFallbacks, MutexBypasses uint64
}

// RingStats always returns the zero value; see the type.
func (m *Moderator) RingStats() RingStats { return RingStats{} }

// republishLocked rebuilds and publishes the composition snapshot from the
// layers' current bank contents, compiling one admission plan per guarded
// method. The admin mutex must be held.
func (m *Moderator) republishLocked(layers []compLayer) {
	cur := m.comp.Load()
	next := &compState{layers: make([]compLayer, len(layers))}
	for i, l := range layers {
		next.layers[i] = compLayer{name: l.name, bank: l.bank, snap: l.bank.Snapshot()}
	}
	next.plans = m.compilePlansLocked(next.layers)
	m.comp.Store(next)
	m.retireLocked(cur)
}

// compilePlansLocked compiles one admission plan per method guarded by the
// given layer snapshots. The admin mutex must be held.
func (m *Moderator) compilePlansLocked(layers []compLayer) map[string]*compiledPlan {
	methods := make(map[string]bool)
	for i := range layers {
		layers[i].snap.EachMethod(func(meth string) { methods[meth] = true })
	}
	plans := make(map[string]*compiledPlan, len(methods))
	for meth := range methods {
		plans[meth] = m.compilePlanLocked(layers, meth)
	}
	return plans
}

// compilePlanLocked resolves one method's guard stack against the given
// layer snapshots. The admin mutex must be held (the plan binds the
// method's admission domain, creating it if needed).
func (m *Moderator) compilePlanLocked(layers []compLayer, method string) *compiledPlan {
	p := &compiledPlan{method: method, pure: true}
	for _, l := range layers {
		entries := l.snap.ForMethod(method)
		if len(entries) == 0 {
			continue
		}
		lo := len(p.entries)
		for _, e := range entries {
			p.entries = append(p.entries, planEntry{layer: l.name, kind: e.Kind, a: e.Aspect})
			p.aspects = append(p.aspects, e.Aspect)
			if nb, ok := e.Aspect.(aspect.NonBlocking); !ok || !nb.NonBlocking() {
				p.pure = false
			}
			if w, ok := e.Aspect.(aspect.Waker); ok {
				for _, t := range w.Wakes() {
					if !containsString(p.wakeTargets, t) {
						p.wakeTargets = append(p.wakeTargets, t)
					}
				}
			}
		}
		p.layers = append(p.layers, planLayer{name: l.name, lo: lo, hi: len(p.entries)})
	}
	sort.Strings(p.wakeTargets) // deterministic cross-domain wake order
	p.targeted = len(p.wakeTargets) > 0
	p.d = m.domainForLocked(method)
	if !p.pure && len(p.entries) > 0 {
		p.optimistic = true
		if p.targeted {
			dt := m.domains.Load()
			for _, t := range p.wakeTargets {
				if dt.byMethod[t] != p.d {
					p.optimistic = false
					break
				}
			}
		}
	}
	// Both fast paths commit with a shared receipt: a fast-path admission
	// carries no per-invocation state (optimistic admissions only run with
	// no tracer installed, so traced is always false), so one immutable
	// receipt per plan serves every concurrent fast-path admission and the
	// fast paths never touch the receipt pool.
	if (p.pure || p.optimistic) && len(p.entries) > 0 {
		p.sharedAdm = &Admission{admitted: p.aspects, plan: p, d: p.d, fast: true, shared: true}
	}
	return p
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Register stores an aspect at (method, kind) in the base layer — the
// paper's registerAspect (Figure 9).
func (m *Moderator) Register(method string, kind aspect.Kind, a aspect.Aspect) error {
	return m.RegisterIn(BaseLayer, method, kind, a)
}

// RegisterIn stores an aspect at (method, kind) in the named layer. If the
// aspect implements aspect.Waker with a non-empty wake list, the method
// and every wake target are merged into one admission domain (the wake
// list of a guard is the span of its shared state).
//
// The interference checker (interference.go) vets the registration first:
// a NonBlocking declaration that contradicts itself, a wake span joining
// two domains that both already saw traffic, a stateful guard instance
// already bound in another admission domain, or an instance already bound
// to this method refuses it with an *InterferenceError. A refused registration changes nothing: no bank
// entry, no domain merge, no published snapshot.
func (m *Moderator) RegisterIn(layerName, method string, kind aspect.Kind, a aspect.Aspect) error {
	m.admin.Lock()
	defer m.admin.Unlock()
	cs := m.comp.Load()
	l := cs.find(layerName)
	if l == nil {
		return fmt.Errorf("moderator %s: register %s/%s in %q: %w", m.name, method, kind, layerName, ErrNoSuchLayer)
	}
	merged, err := m.vetLocked(cs, method, kind, a)
	if err != nil {
		return err
	}
	if err := l.bank.Register(method, kind, a); err != nil {
		return fmt.Errorf("moderator %s: %w", m.name, err)
	}
	if merged != nil {
		m.domains.Store(merged)
	}
	m.republishLocked(cs.layers)
	return nil
}

// Unregister removes every aspect at (method, kind) from the named layer,
// reporting how many were removed. In-flight invocations complete under the
// composition they were admitted with.
func (m *Moderator) Unregister(layerName, method string, kind aspect.Kind) (int, error) {
	m.admin.Lock()
	defer m.admin.Unlock()
	cs := m.comp.Load()
	l := cs.find(layerName)
	if l == nil {
		return 0, fmt.Errorf("moderator %s: unregister from %q: %w", m.name, layerName, ErrNoSuchLayer)
	}
	n := l.bank.Unregister(method, kind)
	if n > 0 {
		m.republishLocked(cs.layers)
	}
	return n, nil
}

// AddLayer introduces a new, empty layer. This is the framework's dynamic
// adaptability hook: the paper's ExtendedAspectModerator becomes
// AddLayer("authentication", Outermost) plus RegisterIn calls, with no
// change to functional code. Layer churn never touches an admission
// domain: the hot path keeps admitting under the previous snapshot until
// the new one is published.
func (m *Moderator) AddLayer(name string, pos Position) error {
	if name == "" {
		return fmt.Errorf("moderator %s: empty layer name", m.name)
	}
	m.admin.Lock()
	defer m.admin.Unlock()
	old := m.comp.Load()
	if old.find(name) != nil {
		return fmt.Errorf("moderator %s: add layer %q: %w", m.name, name, ErrLayerExists)
	}
	b := bank.New()
	nl := compLayer{name: name, bank: b, snap: b.Snapshot()}
	layers := make([]compLayer, 0, len(old.layers)+1)
	if pos == Innermost {
		layers = append(layers, old.layers...)
		layers = append(layers, nl)
	} else {
		layers = append(layers, nl)
		layers = append(layers, old.layers...)
	}
	m.republishLocked(layers)
	return nil
}

// RemoveLayer removes a layer and all its aspects. In-flight invocations
// admitted under the layer still run its postactions: the Admission
// receipt holds the admitted aspect objects, not bank coordinates.
func (m *Moderator) RemoveLayer(name string) error {
	m.admin.Lock()
	defer m.admin.Unlock()
	old := m.comp.Load()
	if old.find(name) == nil {
		return fmt.Errorf("moderator %s: remove layer %q: %w", m.name, name, ErrNoSuchLayer)
	}
	layers := make([]compLayer, 0, len(old.layers)-1)
	for _, l := range old.layers {
		if l.name != name {
			layers = append(layers, l)
		}
	}
	m.republishLocked(layers)
	return nil
}

// GroupMethods declares that the listed participating methods form one
// admission domain: aspects registered on any of them may share guard
// state, because all their hooks run under the group's single mutex.
// Declare groups during initialization; merging two domains that both
// already saw traffic fails with ErrDomainActive.
func (m *Moderator) GroupMethods(methods ...string) error {
	if len(methods) == 0 {
		return nil
	}
	m.admin.Lock()
	defer m.admin.Unlock()
	return m.groupLocked(methods)
}

// groupLocked merges the methods' domains and republishes the plans that
// bind them. The admin mutex must be held.
func (m *Moderator) groupLocked(methods []string) error {
	next, err := m.mergeLocked(methods)
	if err != nil || next == nil {
		return err
	}
	m.domains.Store(next)
	// Compiled plans bind each method's domain; re-publish so no plan
	// keeps pointing at a merged-away domain.
	m.republishLocked(m.comp.Load().layers)
	return nil
}

// mergeLocked computes the domain table that puts the methods in one
// admission domain, without publishing it. It returns nil when they
// already share one, and wraps ErrDomainActive when two of their domains
// both already saw traffic. The admin mutex must be held.
func (m *Moderator) mergeLocked(methods []string) (*domainTable, error) {
	dt := m.domains.Load()
	var distinct []*domain
	seen := make(map[*domain]bool, len(methods))
	for _, meth := range methods {
		if meth == "" {
			return nil, fmt.Errorf("moderator %s: group: empty method name", m.name)
		}
		if d := dt.byMethod[meth]; d != nil && !seen[d] {
			seen[d] = true
			distinct = append(distinct, d)
		}
	}
	var actives []*domain
	for _, d := range distinct {
		if d.active() {
			actives = append(actives, d)
		}
	}
	if len(actives) > 1 {
		return nil, fmt.Errorf("moderator %s: group %v: %d domains already saw traffic: %w",
			m.name, methods, len(actives), ErrDomainActive)
	}
	var target *domain
	switch {
	case len(actives) == 1:
		target = actives[0]
	case len(distinct) > 0:
		target = distinct[0]
	default:
		target = newDomain()
	}
	changed := false
	for _, meth := range methods {
		if dt.byMethod[meth] != target {
			changed = true
			break
		}
	}
	if !changed {
		return nil, nil
	}
	next := dt.clone()
	for _, meth := range methods {
		next.byMethod[meth] = target
	}
	next.rebuildAll(dt.all)
	return next, nil
}

// Domains returns the current method grouping: one sorted slice of method
// names per admission domain, ordered by each group's first method. Only
// methods the moderator has seen (via invocation, grouping, or Waker
// registration) appear.
func (m *Moderator) Domains() [][]string {
	dt := m.domains.Load()
	byDomain := make(map[*domain][]string, len(dt.all))
	for meth, d := range dt.byMethod {
		byDomain[d] = append(byDomain[d], meth)
	}
	out := make([][]string, 0, len(byDomain))
	for _, methods := range byDomain {
		sort.Strings(methods)
		out = append(out, methods)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// domainFor returns the admission domain of a method, creating one (via
// copy-on-write of the domain table) on first use.
func (m *Moderator) domainFor(method string) *domain {
	if d := m.domains.Load().byMethod[method]; d != nil {
		return d
	}
	m.admin.Lock()
	defer m.admin.Unlock()
	return m.domainForLocked(method)
}

// domainForLocked is domainFor for callers already holding the admin
// mutex (plan compilation, which runs under it).
func (m *Moderator) domainForLocked(method string) *domain {
	dt := m.domains.Load()
	if d := dt.byMethod[method]; d != nil {
		return d
	}
	d := newDomain()
	next := dt.clone()
	next.byMethod[method] = d
	next.all = append(next.all, d)
	m.domains.Store(next)
	return d
}

// Layers returns the current layer names, outermost first.
func (m *Moderator) Layers() []string {
	cs := m.comp.Load()
	out := make([]string, len(cs.layers))
	for i := range cs.layers {
		out[i] = cs.layers[i].name
	}
	return out
}

// Aspects returns the aspects that would guard the given method right now,
// in precondition evaluation order (outermost layer first, registration
// order within a layer).
func (m *Moderator) Aspects(method string) []aspect.Aspect {
	var out []aspect.Aspect
	for _, l := range m.comp.Load().layers {
		for _, e := range l.snap.ForMethod(method) {
			out = append(out, e.Aspect)
		}
	}
	return out
}

// AspectInfo describes one registered aspect for introspection.
type AspectInfo struct {
	Name string
	Kind aspect.Kind
}

// LayerInfo describes one layer's composition: per participating method,
// the aspects in registration (evaluation) order.
type LayerInfo struct {
	Name    string
	Methods map[string][]AspectInfo
}

// Describe returns a structural snapshot of the whole composition, layers
// outermost first — the operator-facing view of the aspect bank that
// cmd/ticketd logs at startup. It reads
// the same atomically-published snapshot as the admission hot path, so it
// never observes a torn composition during layer churn.
func (m *Moderator) Describe() []LayerInfo {
	return describeComp(m.comp.Load())
}

// DescribeString renders Describe for logs.
func (m *Moderator) DescribeString() string {
	return describeString(m.name, m.opts, m.Describe())
}

func describeComp(cs *compState) []LayerInfo {
	out := make([]LayerInfo, 0, len(cs.layers))
	for _, l := range cs.layers {
		info := LayerInfo{Name: l.name, Methods: make(map[string][]AspectInfo, 4)}
		for _, method := range l.snap.Methods() {
			entries := l.snap.ForMethod(method)
			aspects := make([]AspectInfo, 0, len(entries))
			for _, e := range entries {
				aspects = append(aspects, AspectInfo{Name: e.Aspect.Name(), Kind: e.Kind})
			}
			info.Methods[method] = aspects
		}
		out = append(out, info)
	}
	return out
}

func describeString(name string, o options, layers []LayerInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "component %s (wake policy %s, %s)\n", name, o.policy, wakeModeName(o.wakeMode))
	for _, layer := range layers {
		fmt.Fprintf(&b, "  layer %s\n", layer.Name)
		methods := make([]string, 0, len(layer.Methods))
		for method := range layer.Methods {
			methods = append(methods, method)
		}
		sort.Strings(methods)
		for _, method := range methods {
			fmt.Fprintf(&b, "    %s:", method)
			for _, a := range layer.Methods[method] {
				fmt.Fprintf(&b, " [%s %s]", a.Kind, a.Name)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

func wakeModeName(w WakeMode) string {
	if w == WakeSingle {
		return "wake-single"
	}
	return "wake-broadcast"
}

// Preactivation evaluates the preconditions of every aspect registered for
// the invocation's method, layer by layer, blocking the caller as dictated
// by Block verdicts. On success it returns the admission receipt, which
// the caller must eventually pass to Postactivation together with the same
// invocation. On failure (Abort verdict, cancelled context, or an invalid
// verdict) every admission already made is cancelled and an error is
// returned; Postactivation must not be called.
//
// This is the pre-activation state machine — the paper's Figure 10 —
// written once:
//
//	evaluate layer ── all Resume ───────────→ next layer; past the last: ADMIT
//	   ↑    │    └─── Abort, invalid verdict → ABORT
//	   │  Block: roll back the layer, then by route
//	   │    ├─ routePure ───────────────────→ ABORT (contract violation)
//	   │    ├─ routeCell: upgrade to routeMutex in place; cell version
//	   ├────┤     moved → re-evaluate, unchanged → park on the verdict
//	   │    └─ routeMutex: park
//	   └─ woken ── park ── context done ────→ Abandon on the blocker, ABORT
//
// All hooks run under the admission domain of the invoked method; callers
// of methods in other domains proceed concurrently. The route — what is
// locked while they run: nothing, the domain's guard cell, or the domain
// mutex (see acquire) — decides what a Block means and nothing else: hook
// order, rollback order, counters, trace events and error text are the same
// statements on every route. ABORT first cancels everything admitted so
// far, in reverse; the admitted state is always the plan prefix
// plan.aspects[:k].
func (m *Moderator) Preactivation(inv *aspect.Invocation) (*Admission, error) {
	// Resolve the composition once, from a single atomic snapshot:
	// in-flight invocations are immune to concurrent re-composition, and
	// the plan was compiled when the snapshot was published — the hot
	// path resolves nothing and allocates nothing.
	plan := m.comp.Load().plans[inv.Method()]
	tb := m.tracer.Load()
	if plan == nil {
		// No aspects guard this method: admit immediately.
		d := m.domainFor(inv.Method())
		g := tb.gate(&d.traceTick)
		d.admissions.Add(1)
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TraceAdmit, Component: m.name, Method: inv.Method(),
				Domain: d.id, Invocation: inv.ID()})
		}
		return nil, nil
	}
	d := plan.d

	// Pin the current reclamation era for the duration of the evaluation
	// (including any parks): a retired composition snapshot is only
	// declared reclaimed once its era's pin slot is quiescent in every
	// domain (reclaim.go).
	slot := &d.pins[m.reclaimEra.Load()%reclaimSlots]
	slot.Add(1)

	g := tb.gate(&d.traceTick)
	var preStart time.Time
	if g.detail() {
		preStart = time.Now()
	}
	r := m.acquire(plan, d, tb == nil, hookOptimisticPre)
	guarded := !plan.pure

	var (
		l *planLayer
		k int
		// ticket is the sticky arrival ticket that keeps a re-parking
		// caller's FIFO/LIFO position across guard re-evaluations; it is
		// assigned lazily on the first park.
		ticket uint64
		// preReg records that the upgrade already counted this caller in
		// m.waiters. The first park consumes it; a terminal outcome before
		// any park releases it.
		preReg    bool
		cause     error // why the admission aborts; nil while it can still admit
		cancelled bool  // cause is the parked caller's context, not a verdict
	)
layers:
	for li := range plan.layers {
		l = &plan.layers[li]
		for { // until the layer admits as a unit
			mark := k
			var by *planEntry // the entry that returned Block
			for i := l.lo; i < l.hi; i++ {
				e := &plan.entries[i]
				var hook0 time.Time
				if g.detail() {
					hook0 = time.Now()
				}
				v := e.a.Precondition(inv)
				if g.detail() {
					g.t.Trace(TraceEvent{Op: TraceVerdict, Component: m.name, Method: inv.Method(),
						Domain: d.id, Layer: l.name, Aspect: e.a.Name(), Kind: e.kind,
						Verdict: v, Invocation: inv.ID(), Nanos: time.Since(hook0).Nanoseconds()})
				}
				if v == aspect.Resume {
					k++
					continue
				}
				switch {
				case v == aspect.Block && r != routePure:
					by = e
				case v == aspect.Block:
					// Nothing is held that a park could release, and the
					// NonBlocking declaration is why: reject, never park.
					cause = fmt.Errorf("moderator %s: NonBlocking aspect %q returned Block: %w",
						m.name, e.a.Name(), aspect.ErrAborted)
				case v == aspect.Abort:
					if cause = inv.Err(); cause == nil {
						cause = aspect.ErrAborted
					}
				default:
					cause = fmt.Errorf("moderator %s: aspect %q returned invalid verdict %v: %w",
						m.name, e.a.Name(), v, aspect.ErrAborted)
				}
				break
			}
			if cause != nil {
				break layers
			}
			if by == nil {
				break // layer fully admitted; next layer
			}
			// Block: roll back this layer's partial admissions, park, retry.
			cancelReverse(plan.aspects[mark:k], inv)
			k = mark
			if r == routeCell {
				// Parking needs the mutex: upgrade in place. Pre-registering
				// in m.waiters under the cell is the anti-stranding
				// invariant — any completer that could skip the wake
				// fan-out must first win this cell and will then observe
				// waiters != 0.
				m.waiters.Add(1)
				preReg = true
				ver := d.cell.unlock()
				d.optParks.Add(1)
				m.callAdmitHook(hookUpgrade, d)
				d.mu.Lock()
				d.cell.lock()
				r = routeMutex
				// Our own cell.lock advanced the sequence by exactly one.
				// Anything else means a guard hook ran in the window and
				// the verdict may be stale (see optimistic.go).
				if d.cell.version() != ver+1 {
					continue
				}
			}
			d.blocks.Add(1)
			// Ticket, park, and wake are always-exact ops (see invTrace):
			// traced for EVERY invocation when a tracer is installed, not
			// only sampled ones — parking costs a scheduler round-trip
			// anyway, and complete wait-duration data is the headline
			// observability payload.
			if ticket == 0 {
				d.ticketSeq++
				ticket = d.ticketSeq
				if g.exact() {
					g.t.Trace(TraceEvent{Op: TraceTicket, Component: m.name, Method: inv.Method(),
						Domain: d.id, Kind: by.kind, Invocation: inv.ID(), Ticket: ticket})
				}
			}
			q := m.queueLocked(d, inv.Method(), by.kind)
			var parkStart time.Time
			if g.exact() {
				g.t.Trace(TraceEvent{Op: TracePark, Component: m.name, Method: inv.Method(),
					Domain: d.id, Layer: l.name, Aspect: by.a.Name(), Kind: by.kind,
					Invocation: inv.ID(), Ticket: ticket, Depth: q.Len() + 1})
				parkStart = time.Now()
			}
			// Register in m.waiters BEFORE releasing the guard cell (or
			// consume the upgrade's pre-registration): once the cell is
			// free, a lock-free completer may check the count, and it must
			// see this caller. Wait then enqueues before releasing the
			// mutex, so a mutex-route completer's fan-out sees it too.
			if preReg {
				preReg = false
			} else {
				m.waiters.Add(1)
			}
			if guarded {
				d.cell.unlock()
			}
			err := q.Wait(inv.Context(), inv.Priority, ticket)
			m.waiters.Add(-1)
			if guarded {
				d.cell.lock()
			}
			if g.exact() {
				wake := TraceEvent{Op: TraceWake, Component: m.name, Method: inv.Method(),
					Domain: d.id, Kind: by.kind, Invocation: inv.ID(), Ticket: ticket,
					Nanos: time.Since(parkStart).Nanoseconds()}
				if err != nil {
					wake.Err = err.Error()
				}
				g.t.Trace(wake)
			}
			if err != nil {
				// The blocked caller abandons: let the blocking aspect
				// retract anything its Block-returning precondition
				// recorded (a barrier arrival, a declared intent).
				if ab, ok := by.a.(aspect.Abandoner); ok {
					ab.Abandon(inv)
				}
				cause, cancelled = err, true
				break layers
			}
		}
	}

	if cause != nil {
		cancelReverse(plan.aspects[:k], inv)
		d.aborts.Add(1)
	} else {
		d.admissions.Add(1)
	}
	if guarded {
		d.cell.unlock()
	}
	if preReg {
		// Upgraded, then re-evaluation ended without ever parking.
		m.waiters.Add(-1)
	}
	var adm *Admission
	var err error
	if cause == nil {
		if r == routeCell {
			d.optAdmits.Add(1)
		}
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TraceAdmit, Component: m.name, Method: inv.Method(),
				Domain: d.id, Invocation: inv.ID(), Aspects: k,
				Nanos: time.Since(preStart).Nanoseconds()})
		}
		if r == routeMutex {
			adm = newAdmission(plan, d, g.detail(), false)
		} else {
			// A lock-free admission carries no per-invocation state:
			// every one of them shares the plan's immutable receipt.
			adm = plan.sharedAdm
		}
	} else {
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TraceAbort, Component: m.name, Method: inv.Method(),
				Domain: d.id, Layer: l.name, Invocation: inv.ID(),
				Nanos: time.Since(preStart).Nanoseconds(), Err: cause.Error()})
		}
		if cancelled {
			err = fmt.Errorf("moderator %s: %s blocked in layer %s: %w",
				m.name, inv.Method(), l.name, cause)
		} else {
			err = fmt.Errorf("moderator %s: %s pre-activation (layer %s): %w",
				m.name, inv.Method(), l.name, cause)
		}
	}
	if r == routeMutex {
		d.mu.Unlock()
	}
	slot.Add(-1)
	return adm, err
}

// Postactivation runs the postactions of every aspect the invocation was
// admitted under (per the admission receipt), in reverse admission order —
// innermost layer first — and wakes blocked callers. It must be called
// exactly once per successful Preactivation, with the method body's
// outcome recorded on the invocation; the receipt is recycled and must not
// be used afterwards. A nil admission (an unguarded method) is a cheap
// no-op.
//
// Postactions run under the invoked method's admission domain, on the same
// three routes as pre-activation (a receipt admitted lock-free may complete
// lock-free, subject to acquire's own re-check). On the mutex route, wake
// targets inside the domain are notified while the domain mutex is still
// held; targets in other domains are notified afterwards, one domain at a
// time, so no two domain mutexes are ever held together. A lock-free
// completion skips the fan-out: it read waiters == 0 with its hooks' whole
// lock set held, so nobody is parked and there is nobody to wake.
func (m *Moderator) Postactivation(inv *aspect.Invocation, adm *Admission) {
	var d *domain
	if adm != nil && adm.d != nil {
		d = adm.d
	} else {
		d = m.domainFor(inv.Method())
	}
	d.completions.Add(1)
	// The effect sink fires before any completion route branches off, so
	// pure, cell, and mutex receipts all replicate alike.
	if eb := m.effects.Load(); eb != nil && inv.Err() == nil {
		eb.s.Effect(inv)
	}
	tb := m.tracer.Load()
	if adm.Len() == 0 {
		releaseAdmission(adm)
		return
	}
	plan := adm.plan

	g := invTrace{}
	if tb != nil {
		g = invTrace{t: tb.t, sampled: adm.traced}
	}
	var postStart time.Time
	if g.detail() {
		postStart = time.Now()
	}

	r := m.acquire(plan, d, adm.fast && tb == nil, hookOptimisticPost)
	// Reverse admission order realizes the onion: the innermost layer's
	// last-admitted aspect acts first, the outermost layer's first aspect
	// acts last (paper Figure 14).
	admitted := adm.admitted
	for i := len(admitted) - 1; i >= 0; i-- {
		a := admitted[i]
		var hook0 time.Time
		if g.detail() {
			hook0 = time.Now()
		}
		a.Postaction(inv)
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TracePost, Component: m.name, Method: inv.Method(),
				Domain: d.id, Aspect: a.Name(), Kind: a.Kind(), Invocation: inv.ID(),
				Nanos: time.Since(hook0).Nanoseconds()})
		}
	}
	if !plan.pure {
		d.cell.unlock()
	}
	if r != routeMutex {
		if r == routeCell {
			d.optCompletes.Add(1)
		}
		releaseAdmission(adm)
		return
	}
	if g.detail() {
		// The completion receipt is emitted under the domain mutex, before
		// the wake fan-out, so it stays ordered with the domain's stream.
		completeEvent(g.t, m.name, inv, d.id, time.Since(postStart).Nanoseconds())
	}
	dt := m.domains.Load()
	releaseAdmission(adm)
	// Only a NON-empty wake list counts as targeting: a passive aspect
	// (metrics, audit) that merely happens to implement Waker with no
	// targets must not suppress the conservative broadcast, or a receipt
	// mixing it with a non-Waker guard would wake nobody and strand the
	// guard's parked callers. The union of the plan's wake lists was
	// precomputed (sorted, deduplicated) at publish time.
	if plan.targeted {
		foreignFrom := -1
		for i, meth := range plan.wakeTargets {
			if dt.byMethod[meth] == d {
				wakeMethodLocked(d, meth, m.opts.wakeMode)
			} else if foreignFrom < 0 {
				foreignFrom = i
			}
		}
		d.mu.Unlock()
		if foreignFrom < 0 {
			return
		}
		for _, meth := range plan.wakeTargets[foreignFrom:] {
			if od := dt.byMethod[meth]; od != nil && od != d {
				od.mu.Lock()
				wakeMethodLocked(od, meth, m.opts.wakeMode)
				od.mu.Unlock()
			}
		}
		return
	}
	// No aspect declared wake targets: conservatively wake everything —
	// every queue of every domain, preserving the single-mutex
	// moderator's contract for aspects that never list their wakes.
	for _, q := range d.queues {
		wakeQueueLocked(q, m.opts.wakeMode)
	}
	d.mu.Unlock()
	for _, od := range dt.all {
		if od == d {
			continue
		}
		od.mu.Lock()
		for _, q := range od.queues {
			wakeQueueLocked(q, m.opts.wakeMode)
		}
		od.mu.Unlock()
	}
}

// Kick wakes every caller blocked on the given method. External event
// sources (timers refilling a rate limiter, a circuit breaker half-opening)
// use it to re-trigger guard evaluation without a method completion.
func (m *Moderator) Kick(method string) {
	d := m.domains.Load().byMethod[method]
	if d == nil {
		return // method never seen: nothing can be parked on it
	}
	d.mu.Lock()
	wakeMethodLocked(d, method, m.opts.wakeMode)
	d.mu.Unlock()
}

// Waiting returns the number of callers currently blocked on the method.
func (m *Moderator) Waiting(method string) int {
	d := m.domains.Load().byMethod[method]
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for k, q := range d.queues {
		if k.method == method {
			n += q.Len()
		}
	}
	return n
}

// QueueStats returns per-queue counters keyed by "method/kind", across all
// admission domains.
func (m *Moderator) QueueStats() map[string]waitq.Stats {
	dt := m.domains.Load()
	out := make(map[string]waitq.Stats)
	for _, d := range dt.all {
		d.mu.Lock()
		for k, q := range d.queues {
			out[k.method+"/"+string(k.kind)] = q.Stats()
		}
		d.mu.Unlock()
	}
	return out
}

// wakeMethodLocked wakes the queues of one method. The domain's mutex must
// be held.
func wakeMethodLocked(d *domain, method string, mode WakeMode) {
	for k, q := range d.queues {
		if k.method == method {
			wakeQueueLocked(q, mode)
		}
	}
}

func wakeQueueLocked(q *waitq.Queue, mode WakeMode) {
	if mode == WakeSingle {
		q.Notify()
	} else {
		q.Broadcast()
	}
}

// queueLocked returns (creating if needed) the wait queue for blocked
// callers of method whose blocking aspect has the given kind — the paper's
// per-method, per-concern waiting queues (PutWaitingQueue,
// OpenAuthenticationQueue). The queue is bound to its domain's mutex. The
// domain's mutex must be held.
func (m *Moderator) queueLocked(d *domain, method string, kind aspect.Kind) *waitq.Queue {
	k := qkey{method: method, kind: kind}
	q, ok := d.queues[k]
	if !ok {
		q = waitq.New(method+"/"+string(kind), m.opts.policy, &d.mu)
		d.queues[k] = q
	}
	return q
}

// cancelReverse calls Cancel on admitted aspects in reverse order.
func cancelReverse(admitted []aspect.Aspect, inv *aspect.Invocation) {
	for i := len(admitted) - 1; i >= 0; i-- {
		if c, ok := admitted[i].(aspect.Canceler); ok {
			c.Cancel(inv)
		}
	}
}
