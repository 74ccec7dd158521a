package moderator

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aspect"
	"repro/internal/bank"
	"repro/internal/waitq"
)

// Reference is the paper-faithful single-mutex moderator: every
// pre-activation, postaction, and cancel hook of the component runs under
// ONE admission mutex, exactly as the seed implementation (and the paper's
// AspectModerator) did. It is retained as the executable specification the
// sharded Moderator is differentially tested against
// (moderator_diff_test.go) and timed against (tiers_ab_test.go).
//
// The admission logic below is deliberately a verbatim port of the
// pre-sharding moderator, NOT a call into the sharded code with one
// domain: sharing the hot path would let a bug hide from the oracle by
// appearing in both implementations. Keep the duplication.
type Reference struct {
	name string
	opts options

	mu        sync.Mutex
	comp      atomic.Pointer[compState]
	queues    map[qkey]*waitq.Queue
	ticketSeq uint64 // guarded by mu
	epochSeq  uint64 // guarded by mu; issues candidate epoch numbers

	admissions  atomic.Uint64
	blocks      atomic.Uint64
	aborts      atomic.Uint64
	completions atomic.Uint64

	// The reference moderator is one domain: one trace shard, one tick.
	domainID  uint64
	traceTick atomic.Uint64
	tracer    atomic.Pointer[tracerBox]
}

// NewReference creates a single-mutex reference moderator with a single
// base layer. It accepts the same options as New.
func NewReference(name string, opts ...Option) *Reference {
	r := &Reference{
		name:     name,
		opts:     buildOptions(opts),
		queues:   make(map[qkey]*waitq.Queue),
		domainID: domainSeq.Add(1),
		epochSeq: 1,
	}
	b := bank.New()
	r.comp.Store(&compState{epoch: 1, layers: []compLayer{{name: BaseLayer, bank: b, snap: b.Snapshot()}}})
	return r
}

// Name returns the component name the moderator guards.
func (r *Reference) Name() string { return r.name }

// WakePolicy returns the wait queues' wake policy.
func (r *Reference) WakePolicy() waitq.Policy { return r.opts.policy }

// WakeMode returns how post-activation releases blocked callers.
func (r *Reference) WakeMode() WakeMode { return r.opts.wakeMode }

// Stats returns a snapshot of the moderator's counters.
func (r *Reference) Stats() Stats {
	return Stats{
		Admissions:  r.admissions.Load(),
		Blocks:      r.blocks.Load(),
		Aborts:      r.aborts.Load(),
		Completions: r.completions.Load(),
	}
}

// republishLocked rebuilds and publishes the composition snapshot,
// carrying the stable epoch and any staged candidate forward (candidate
// layers are frozen at stage time, so they republish unchanged). r.mu
// must be held.
func (r *Reference) republishLocked(layers []compLayer) {
	cur := r.comp.Load()
	next := &compState{epoch: cur.epoch, cand: cur.cand, layers: make([]compLayer, len(layers))}
	for i, l := range layers {
		next.layers[i] = compLayer{name: l.name, bank: l.bank, snap: l.bank.Snapshot()}
	}
	r.comp.Store(next)
}

// Register stores an aspect at (method, kind) in the base layer.
func (r *Reference) Register(method string, kind aspect.Kind, a aspect.Aspect) error {
	return r.RegisterIn(BaseLayer, method, kind, a)
}

// RegisterIn stores an aspect at (method, kind) in the named layer. The
// single admission mutex already spans every method, so no grouping is
// needed or performed.
func (r *Reference) RegisterIn(layerName, method string, kind aspect.Kind, a aspect.Aspect) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.comp.Load()
	l := cs.find(layerName)
	if l == nil {
		return fmt.Errorf("moderator %s: register %s/%s in %q: %w", r.name, method, kind, layerName, ErrNoSuchLayer)
	}
	if err := l.bank.Register(method, kind, a); err != nil {
		return fmt.Errorf("moderator %s: %w", r.name, err)
	}
	r.republishLocked(cs.layers)
	return nil
}

// Unregister removes every aspect at (method, kind) from the named layer.
func (r *Reference) Unregister(layerName, method string, kind aspect.Kind) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := r.comp.Load()
	l := cs.find(layerName)
	if l == nil {
		return 0, fmt.Errorf("moderator %s: unregister from %q: %w", r.name, layerName, ErrNoSuchLayer)
	}
	n := l.bank.Unregister(method, kind)
	if n > 0 {
		r.republishLocked(cs.layers)
	}
	return n, nil
}

// AddLayer introduces a new, empty layer.
func (r *Reference) AddLayer(name string, pos Position) error {
	if name == "" {
		return fmt.Errorf("moderator %s: empty layer name", r.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.comp.Load()
	if old.find(name) != nil {
		return fmt.Errorf("moderator %s: add layer %q: %w", r.name, name, ErrLayerExists)
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
	r.republishLocked(layers)
	return nil
}

// RemoveLayer removes a layer and all its aspects. In-flight invocations
// admitted under the layer still run its postactions.
func (r *Reference) RemoveLayer(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.comp.Load()
	if old.find(name) == nil {
		return fmt.Errorf("moderator %s: remove layer %q: %w", r.name, name, ErrNoSuchLayer)
	}
	layers := make([]compLayer, 0, len(old.layers)-1)
	for _, l := range old.layers {
		if l.name != name {
			layers = append(layers, l)
		}
	}
	r.republishLocked(layers)
	return nil
}

// GroupMethods is a no-op on the reference moderator: its one admission
// mutex already covers every method, so every method is trivially in the
// same "domain". It exists so Reference satisfies Admitter and wiring code
// can declare groups without caring which implementation it drives.
func (r *Reference) GroupMethods(methods ...string) error { return nil }

// Layers returns the current layer names, outermost first.
func (r *Reference) Layers() []string {
	cs := r.comp.Load()
	out := make([]string, len(cs.layers))
	for i := range cs.layers {
		out[i] = cs.layers[i].name
	}
	return out
}

// Aspects returns the aspects that would guard the given method right now.
func (r *Reference) Aspects(method string) []aspect.Aspect {
	var out []aspect.Aspect
	for _, l := range r.comp.Load().layers {
		for _, e := range l.snap.ForMethod(method) {
			out = append(out, e.Aspect)
		}
	}
	return out
}

// Describe returns a structural snapshot of the whole composition, read
// from the same atomically-published snapshot as the admission hot path.
func (r *Reference) Describe() []LayerInfo {
	return describeComp(r.comp.Load())
}

// DescribeString renders Describe for logs.
func (r *Reference) DescribeString() string {
	return describeString(r.name, r.opts, r.Describe())
}

// resolvedLayer is one layer's aspects as captured at pre-activation time.
// The sharded Moderator compiles this resolution into the snapshot
// (compiledPlan); the Reference deliberately keeps the per-invocation
// resolution of the pre-sharding moderator.
type resolvedLayer struct {
	name    string
	entries []bank.Entry
}

// Preactivation evaluates preconditions layer by layer under the single
// admission mutex. See Moderator.Preactivation for the shared semantics.
func (r *Reference) Preactivation(inv *aspect.Invocation) (*Admission, error) {
	cs := r.comp.Load()
	// With a canary staged, the same deterministic route hash as the
	// sharded moderator selects the candidate layer set (canary.go).
	layers := cs.routedLayers(inv.Method(), routeKeyOf(inv))
	plan := make([]resolvedLayer, 0, len(layers))
	total := 0
	for _, l := range layers {
		entries := l.snap.ForMethod(inv.Method())
		if len(entries) > 0 {
			plan = append(plan, resolvedLayer{name: l.name, entries: entries})
			total += len(entries)
		}
	}
	g := r.tracer.Load().gate(&r.traceTick)
	if total == 0 {
		r.admissions.Add(1)
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TraceAdmit, Component: r.name, Method: inv.Method(),
				Domain: r.domainID, Invocation: inv.ID()})
		}
		return nil, nil
	}
	var preStart time.Time
	if g.detail() {
		preStart = time.Now()
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	var ticket uint64
	admitted := make([]aspect.Aspect, 0, total)
	for _, l := range plan {
		for {
			mark := len(admitted)
			var blockedKind aspect.Kind
			var blockedBy aspect.Aspect
			blocked := false
			var abortErr error
			for _, e := range l.entries {
				var hook0 time.Time
				if g.detail() {
					hook0 = time.Now()
				}
				v := e.Aspect.Precondition(inv)
				if g.detail() {
					g.t.Trace(TraceEvent{Op: TraceVerdict, Component: r.name, Method: inv.Method(),
						Domain: r.domainID, Layer: l.name, Aspect: e.Aspect.Name(), Kind: e.Kind,
						Verdict: v, Invocation: inv.ID(), Nanos: time.Since(hook0).Nanoseconds()})
				}
				if v == aspect.Resume {
					admitted = append(admitted, e.Aspect)
					continue
				}
				switch v {
				case aspect.Block:
					blocked = true
					blockedKind = e.Kind
					blockedBy = e.Aspect
				case aspect.Abort:
					abortErr = inv.Err()
					if abortErr == nil {
						abortErr = aspect.ErrAborted
					}
				default:
					abortErr = fmt.Errorf("moderator %s: aspect %q returned invalid verdict %v: %w",
						r.name, e.Aspect.Name(), v, aspect.ErrAborted)
				}
				break
			}
			if abortErr != nil {
				cancelReverse(admitted, inv)
				r.aborts.Add(1)
				if g.detail() {
					g.t.Trace(TraceEvent{Op: TraceAbort, Component: r.name, Method: inv.Method(),
						Domain: r.domainID, Layer: l.name, Invocation: inv.ID(),
						Nanos: time.Since(preStart).Nanoseconds(), Err: abortErr.Error()})
				}
				return nil, fmt.Errorf("moderator %s: %s pre-activation (layer %s): %w",
					r.name, inv.Method(), l.name, abortErr)
			}
			if !blocked {
				break
			}
			cancelReverse(admitted[mark:], inv)
			admitted = admitted[:mark]
			r.blocks.Add(1)
			if ticket == 0 {
				r.ticketSeq++
				ticket = r.ticketSeq
				if g.exact() {
					g.t.Trace(TraceEvent{Op: TraceTicket, Component: r.name, Method: inv.Method(),
						Domain: r.domainID, Kind: blockedKind, Invocation: inv.ID(), Ticket: ticket})
				}
			}
			q := r.queueLocked(inv.Method(), blockedKind)
			var parkStart time.Time
			if g.exact() {
				g.t.Trace(TraceEvent{Op: TracePark, Component: r.name, Method: inv.Method(),
					Domain: r.domainID, Layer: l.name, Aspect: blockedBy.Name(), Kind: blockedKind,
					Invocation: inv.ID(), Ticket: ticket, Depth: q.Len() + 1})
				parkStart = time.Now()
			}
			err := q.Wait(inv.Context(), inv.Priority, ticket)
			if g.exact() {
				wake := TraceEvent{Op: TraceWake, Component: r.name, Method: inv.Method(),
					Domain: r.domainID, Kind: blockedKind, Invocation: inv.ID(), Ticket: ticket,
					Nanos: time.Since(parkStart).Nanoseconds()}
				if err != nil {
					wake.Err = err.Error()
				}
				g.t.Trace(wake)
			}
			if err != nil {
				if ab, ok := blockedBy.(aspect.Abandoner); ok {
					ab.Abandon(inv)
				}
				cancelReverse(admitted, inv)
				r.aborts.Add(1)
				if g.detail() {
					g.t.Trace(TraceEvent{Op: TraceAbort, Component: r.name, Method: inv.Method(),
						Domain: r.domainID, Layer: l.name, Invocation: inv.ID(),
						Nanos: time.Since(preStart).Nanoseconds(), Err: err.Error()})
				}
				return nil, fmt.Errorf("moderator %s: %s blocked in layer %s: %w",
					r.name, inv.Method(), l.name, err)
			}
		}
	}
	r.admissions.Add(1)
	if g.detail() {
		g.t.Trace(TraceEvent{Op: TraceAdmit, Component: r.name, Method: inv.Method(),
			Domain: r.domainID, Invocation: inv.ID(), Aspects: len(admitted),
			Nanos: time.Since(preStart).Nanoseconds()})
	}
	return &Admission{admitted: admitted, traced: g.detail()}, nil
}

// Postactivation runs postactions in reverse admission order under the
// single admission mutex and wakes blocked callers.
func (r *Reference) Postactivation(inv *aspect.Invocation, adm *Admission) {
	r.completions.Add(1)
	g := invTrace{}
	if b := r.tracer.Load(); b != nil {
		g = invTrace{t: b.t, sampled: adm != nil && adm.traced}
	}
	if adm.Len() == 0 {
		if g.detail() {
			completeEvent(g.t, r.name, inv, r.domainID, 0)
		}
		return
	}
	admitted := adm.admitted
	var postStart time.Time
	if g.detail() {
		postStart = time.Now()
	}

	r.mu.Lock()
	defer r.mu.Unlock()

	// As in Moderator.Postactivation: only a non-empty wake list counts
	// as targeting, so passive Waker implementors cannot suppress the
	// conservative broadcast and strand another guard's parked callers.
	targeted := false
	wakeMethods := make(map[string]bool, 2)
	for i := len(admitted) - 1; i >= 0; i-- {
		a := admitted[i]
		var hook0 time.Time
		if g.detail() {
			hook0 = time.Now()
		}
		a.Postaction(inv)
		if g.detail() {
			g.t.Trace(TraceEvent{Op: TracePost, Component: r.name, Method: inv.Method(),
				Domain: r.domainID, Aspect: a.Name(), Kind: a.Kind(), Invocation: inv.ID(),
				Nanos: time.Since(hook0).Nanoseconds()})
		}
		if w, ok := a.(aspect.Waker); ok {
			if wakes := w.Wakes(); len(wakes) > 0 {
				targeted = true
				for _, meth := range wakes {
					wakeMethods[meth] = true
				}
			}
		}
	}
	if g.detail() {
		completeEvent(g.t, r.name, inv, r.domainID, time.Since(postStart).Nanoseconds())
	}
	if targeted {
		for meth := range wakeMethods {
			r.wakeMethodLocked(meth)
		}
		return
	}
	for _, q := range r.queues {
		wakeQueueLocked(q, r.opts.wakeMode)
	}
}

// Kick wakes every caller blocked on the given method.
func (r *Reference) Kick(method string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wakeMethodLocked(method)
}

// Waiting returns the number of callers currently blocked on the method.
func (r *Reference) Waiting(method string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for k, q := range r.queues {
		if k.method == method {
			n += q.Len()
		}
	}
	return n
}

// QueueStats returns per-queue counters keyed by "method/kind".
func (r *Reference) QueueStats() map[string]waitq.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]waitq.Stats, len(r.queues))
	for k, q := range r.queues {
		out[k.method+"/"+string(k.kind)] = q.Stats()
	}
	return out
}

func (r *Reference) wakeMethodLocked(method string) {
	for k, q := range r.queues {
		if k.method == method {
			wakeQueueLocked(q, r.opts.wakeMode)
		}
	}
}

func (r *Reference) queueLocked(method string, kind aspect.Kind) *waitq.Queue {
	k := qkey{method: method, kind: kind}
	q, ok := r.queues[k]
	if !ok {
		q = waitq.New(method+"/"+string(kind), r.opts.policy, &r.mu)
		r.queues[k] = q
	}
	return q
}
